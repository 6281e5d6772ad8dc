"""Quivers, monomial path algebras, and their distinguished modules.

A quiver is a finite directed multigraph.  The algebras handled here are path
algebras over F_p modulo monomial relations (each relation is a single path of
length at least two).  Paths compose left to right: the path (a1, a2) first
traverses a1, then a2, so it requires target(a1) == source(a2).  A module
assigns to each vertex an F_p-space and to each arrow a matrix of shape
(dims[target], dims[source]); the relation a1 a2 ... ak annihilates a module
exactly when M(ak) @ ... @ M(a1) is zero.
"""

from dataclasses import dataclass
from typing import NamedTuple

from . import linalg
from .config import DEFAULT_CONFIG
from .errors import BadRelation, PathBlowup, SpecParseError


class Arrow(NamedTuple):
    name: str
    source: int
    target: int


class Path(NamedTuple):
    """A basis path: start vertex, arrow name sequence, end vertex."""

    start: int
    names: tuple
    end: int


@dataclass(frozen=True)
class Quiver:
    vertex_count: int
    arrows: tuple

    def __post_init__(self):
        if self.vertex_count < 1:
            raise SpecParseError("a quiver needs at least one vertex")
        seen = set()
        for a in self.arrows:
            if a.name in seen:
                raise SpecParseError(f"duplicate arrow name {a.name!r}")
            seen.add(a.name)
            if not (0 <= a.source < self.vertex_count and 0 <= a.target < self.vertex_count):
                raise SpecParseError(f"arrow {a.name!r} leaves the vertex range")

    def arrow(self, name):
        for a in self.arrows:
            if a.name == name:
                return a
        raise KeyError(name)


class Algebra:
    """A monomial path algebra with its finite basis of relation-free paths.

    Immutable after construction; build through build_algebra.
    """

    def __init__(self, quiver, relations, prime, path_basis):
        self.quiver = quiver
        self.relations = relations
        self.prime = prime
        self.path_basis = path_basis
        self.arrow_index = {a.name: i for i, a in enumerate(quiver.arrows)}

    def paths_from(self, vertex):
        return [pth for pth in self.path_basis if pth.start == vertex]


def _contains_relation_suffix(names, relations):
    # the parent path was clean, so only suffixes ending at the new arrow matter
    for rel in relations:
        k = len(rel)
        if k <= len(names) and names[-k:] == rel:
            return True
    return False


def _path_blowup(size, budget):
    return PathBlowup(
        f"path basis has at least {size} elements, budget {budget}"
        " (--path-budget); the algebra is too large or infinite-dimensional"
    )


def build_algebra(quiver, relations, prime, config=None):
    """Validate the presentation and enumerate the path basis breadth-first.

    Paths are ordered by length, then lexicographically by arrow-name sequence
    (trivial paths by vertex).  Raises BadRelation for malformed relations and
    PathBlowup when the basis would pass the path budget.
    """
    cfg = config or DEFAULT_CONFIG
    if prime not in linalg.PRIMES:
        raise SpecParseError(f"prime must be one of {linalg.PRIMES}, got {prime}")
    rels = []
    for rel in relations:
        rel = tuple(rel)
        if len(rel) < 2:
            raise BadRelation(f"relation {rel!r} is shorter than two arrows")
        try:
            steps = [quiver.arrow(n) for n in rel]
        except KeyError as exc:
            raise BadRelation(f"relation {rel!r} names unknown arrow {exc.args[0]!r}") from exc
        for x, y in zip(steps, steps[1:]):
            if x.target != y.source:
                raise BadRelation(f"relation {rel!r} is not composable at {x.name!r}->{y.name!r}")
        rels.append(rel)
    rels = tuple(sorted(set(rels)))

    by_source = {}
    for a in quiver.arrows:
        by_source.setdefault(a.source, []).append(a)
    for lst in by_source.values():
        lst.sort(key=lambda a: a.name)

    # the budget is checked before a path is built, so a blowup stops at
    # most budget paths in, and before any when the vertices alone pass it
    budget = cfg.path_budget
    if quiver.vertex_count > budget:
        raise _path_blowup(quiver.vertex_count, budget)
    basis = [Path(v, (), v) for v in range(quiver.vertex_count)]
    frontier = list(basis)
    while frontier:
        nxt = []
        for pth in frontier:
            for a in by_source.get(pth.end, []):
                names = pth.names + (a.name,)
                if _contains_relation_suffix(names, rels):
                    continue
                if len(basis) + len(nxt) == budget:
                    raise _path_blowup(budget + 1, budget)
                nxt.append(Path(pth.start, names, a.target))
        nxt.sort(key=lambda q: q.names)
        basis.extend(nxt)
        frontier = nxt
    return Algebra(quiver, rels, prime, tuple(basis))


def simple_module(algebra, vertex):
    """The simple module concentrated at `vertex` with all arrow actions zero."""
    from .modrep import Module

    dims = tuple(1 if v == vertex else 0 for v in range(algebra.quiver.vertex_count))
    mats = tuple(
        ((0,) * dims[a.source],) * dims[a.target] for a in algebra.quiver.arrows
    )
    return Module(algebra, dims, mats)


def projective_module(algebra, vertex):
    """The projective cover of the simple at `vertex`.

    Basis: the basis paths starting at `vertex`, graded by their end vertex.
    An arrow acts by path extension, and by zero when the extended path has
    left the path basis.
    """
    from .modrep import Module

    nv = algebra.quiver.vertex_count
    paths = algebra.paths_from(vertex)
    slot = {}
    per_vertex = [0] * nv
    for pth in paths:
        slot[pth.names] = per_vertex[pth.end]
        per_vertex[pth.end] += 1
    dims = tuple(per_vertex)
    mats = []
    for a in algebra.quiver.arrows:
        m = [[0] * dims[a.source] for _ in range(dims[a.target])]
        for pth in paths:
            if pth.end != a.source:
                continue
            extended = pth.names + (a.name,)
            if extended in slot:
                m[slot[extended]][slot[pth.names]] = 1
        mats.append(m)
    return Module(algebra, dims, tuple(mats))


def injective_module(algebra, vertex):
    """The injective envelope of the simple at `vertex`.

    Basis: the basis paths ending at `vertex`, graded by their start vertex.
    An arrow acts by deleting itself from the front of a path that begins
    with it, and by zero on every other path.
    """
    from .modrep import Module

    nv = algebra.quiver.vertex_count
    paths = [pth for pth in algebra.path_basis if pth.end == vertex]
    slot = {}
    per_vertex = [0] * nv
    for pth in paths:
        slot[pth.names] = per_vertex[pth.start]
        per_vertex[pth.start] += 1
    dims = tuple(per_vertex)
    mats = []
    for a in algebra.quiver.arrows:
        m = [[0] * dims[a.source] for _ in range(dims[a.target])]
        for pth in paths:
            if pth.names[:1] == (a.name,):
                m[slot[pth.names[1:]]][slot[pth.names]] = 1
        mats.append(m)
    return Module(algebra, dims, tuple(mats))


_DIRECTIVES = ("vertices", "arrow", "relation", "prime")


def _one_integer(lineno, head, args):
    """The argument of a directive that takes exactly one integer."""
    try:
        (value,) = args
        return int(value)
    except ValueError:
        raise SpecParseError(f"line {lineno}: {head} needs one integer") from None


def parse_algebra_text(text, config=None):
    """Parse the line-oriented spec format and build the algebra.

    Directives: `vertices N`, `arrow <name> <src> <dst>` (vertices 1-based),
    `relation <name> <name> ...`, `prime p`.  `#` starts a comment.
    """
    vertex_count = None
    prime = None
    arrows = []
    relations = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head, args = parts[0], parts[1:]
        if head == "vertices":
            if vertex_count is not None:
                raise SpecParseError(f"line {lineno}: repeated vertices directive")
            vertex_count = _one_integer(lineno, head, args)
        elif head == "arrow":
            if len(args) != 3:
                raise SpecParseError(f"line {lineno}: arrow needs name, source, target")
            try:
                src, dst = int(args[1]), int(args[2])
            except ValueError:
                raise SpecParseError(f"line {lineno}: arrow endpoints must be integers") from None
            arrows.append((args[0], src - 1, dst - 1))
        elif head == "relation":
            if not args:
                raise SpecParseError(f"line {lineno}: empty relation")
            relations.append(tuple(args))
        elif head == "prime":
            if prime is not None:
                raise SpecParseError(f"line {lineno}: repeated prime directive")
            prime = _one_integer(lineno, head, args)
        else:
            raise SpecParseError(
                f"line {lineno}: unknown directive {head!r}, expected one of {_DIRECTIVES}"
            )
    if vertex_count is None:
        raise SpecParseError("missing vertices directive")
    if prime is None:
        raise SpecParseError("missing prime directive")
    quiver = Quiver(vertex_count, tuple(Arrow(n, s, t) for n, s, t in arrows))
    return build_algebra(quiver, relations, prime, config)


def parse_algebra_file(path, config=None):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_algebra_text(fh.read(), config)
