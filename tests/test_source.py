"""Checks on the library's source text."""

import ast
from collections import Counter
from pathlib import Path

import torslat

SRC = Path(torslat.__file__).resolve().parent


def _binds(fn):
    """The names a function binds: its parameters and its Store targets."""
    a = fn.args
    params = (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
    return {p.arg for p in params if p} | {
        n.id for n in ast.walk(fn)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
    }


def _references(node, bound=frozenset(), defs=()):
    """(name, defs) for each name read or attribute taken under the node,
    once per use, defs being the functions it lies in.  A name that an
    enclosing function binds is its local, not a use of a def."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        bound = bound | _binds(node)
        defs = (*defs, node)
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Name) and child.id not in bound:
            yield child.id, defs
        elif isinstance(child, ast.Attribute):
            yield child.attr, defs
        yield from _references(child, bound, defs)


# the defs that only the benchmark reads: its query job looks a node up by
# its members (bench/workloads.py)
BENCHMARK_READS = {"node_index"}


def unreferenced_defs(root):
    """(file, line, name) of each def under root whose name no code under
    root uses outside the def itself.  Dunders, torslat.__all__ and
    BENCHMARK_READS are exempt: Python, the package's users and the
    benchmark call them."""
    trees = {p: ast.parse(p.read_text()) for p in sorted(root.rglob("*.py"))}
    uses = Counter()
    own = Counter()
    for tree in trees.values():
        for name, defs in _references(tree):
            uses[name] += 1
            own.update(d for d in defs if getattr(d, "name", None) == name)
    exempt = set(torslat.__all__) | BENCHMARK_READS
    out = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name in exempt or (name.startswith("__") and name.endswith("__")):
                continue
            if uses[name] == own[node]:
                out.append((path.relative_to(root).as_posix(), node.lineno, name))
    return out


def test_every_library_def_has_a_library_caller():
    # a def that only tests call belongs in tests/oracles.py, or nowhere
    assert unreferenced_defs(SRC) == []


def test_the_lattice_runs_no_extension_closure():
    # the walk takes its covers by perpendiculars; its only closures are the
    # label checks', through subcat.filt
    tree = ast.parse((SRC / "lattice.py").read_text())
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {
        a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names
    }
    assert "extension_closure" not in names


def test_the_catalog_solves_no_hom_basis():
    # the closure's Ext scans give the Hom dimensions; a second solve of
    # each ordered pair would be n^2 intertwining systems per build
    tree = ast.parse((SRC / "catalog.py").read_text())
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {
        a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names
    }
    assert "hom_basis" not in names


def uses_outside(root, is_use, allowed):
    """(file, line, where) of each node under root that is_use accepts,
    outside the functions named in allowed, where the qualified name of the
    outermost function it lies in (None at module level)."""
    out = []

    def walk(node, rel, scope, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = (*scope, child.name)
                is_def = not isinstance(child, ast.ClassDef)
                walk(child, rel, inner, where or (".".join(inner) if is_def else None))
                continue
            if is_use(child) and where not in allowed:
                out.append((rel, child.lineno, where))
            walk(child, rel, scope, where)

    for path in sorted(root.rglob("*.py")):
        walk(ast.parse(path.read_text()), path.relative_to(root).as_posix(), (), None)
    return out


def test_frozenset_masks_live_only_in_the_lattice():
    # masks and node sets are int bitsets; the one frozenset view is the
    # lattice's node_index, from each node's members to the node
    frozensets = uses_outside(
        SRC,
        lambda n: isinstance(n, ast.Name) and n.id == "frozenset",
        {"TorsLattice.node_index"},
    )
    assert frozensets == []


def numpy_imports(root):
    """(file, line) of each import of numpy, or of a numpy submodule, under root."""
    out = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.Import):
                names = [a.name for a in n.names]
            elif isinstance(n, ast.ImportFrom):
                names = [n.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                out.append((rel, n.lineno))
    return out


def test_the_library_imports_no_numpy():
    # a matrix is a tuple of int row tuples everywhere in the library
    assert numpy_imports(SRC) == []


# the op_cache key kinds, each memoised by subcat._cached at one call site
CACHE_KINDS = {"filt", "wide", "serre", "oneside", "mutation"}


def _key_kind(key, tuples):
    """The first item of a key tuple, or of the one tuple the name key is
    bound to in its module."""
    if isinstance(key, ast.Name):
        (key,) = tuples[key.id]
    return key.elts[0].value


def cache_sites(root):
    """(kind, file, line) of each call of subcat._cached under root, kind
    the tag of the key it passes, and (kind, file, line) of each op_cache
    access outside _cached itself: the kind of the key of a subscript
    store, "=" for setting the attribute, "read" for any other use."""
    calls, others = [], []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text())
        tuples = {}
        for n in ast.walk(tree):
            if isinstance(n, ast.Assign) and isinstance(n.value, ast.Tuple):
                for t in n.targets:
                    if isinstance(t, ast.Name):
                        tuples.setdefault(t.id, []).append(n.value)
        helper = {
            id(n)
            for d in ast.walk(tree)
            if isinstance(d, ast.FunctionDef) and d.name == "_cached"
            for n in ast.walk(d)
        }
        stores = {
            id(n.value): _key_kind(n.slice, tuples)
            for n in ast.walk(tree)
            if isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Store)
            and getattr(n.value, "attr", None) == "op_cache" and id(n) not in helper
        }
        for n in ast.walk(tree):
            if isinstance(n, ast.Call):
                name = getattr(n.func, "id", None) or getattr(n.func, "attr", None)
                if name == "_cached":
                    calls.append((_key_kind(n.args[1], tuples), rel, n.lineno))
            elif isinstance(n, ast.Attribute) and n.attr == "op_cache":
                if id(n) not in helper:
                    what = "=" if isinstance(n.ctx, ast.Store) else "read"
                    others.append((stores.get(id(n), what), rel, n.lineno))
    return calls, others


def test_each_cache_kind_has_one_call_site():
    # a second memo of one fact fails here; outside _cached, only
    # Catalog.__init__ touches op_cache, to make the dict
    calls, others = cache_sites(SRC)
    kinds = Counter(kind for kind, _, _ in calls)
    assert kinds == Counter(CACHE_KINDS)
    assert [(what, rel) for what, rel, _ in others] == [("=", "catalog.py")]


# the functions that may read a catalog's Hom dimensions: the constructor
# checks them against the Hom table, build_tables passes on the rows that
# the closure's Ext scans computed, to_json and from_json write and read
# them; every other reader takes the Hom table
HOM_DIM_READERS = {"Catalog.__init__", "build_tables", "to_json", "from_json"}


def test_hom_dim_is_read_only_where_it_is_checked_built_or_exported():
    # the subfactor pairs are the one source for Hom vanishing
    reads = uses_outside(
        SRC,
        lambda n: isinstance(n, ast.Attribute) and n.attr == "hom_dim",
        HOM_DIM_READERS,
    )
    assert reads == []


def require_witnesses(root):
    """(file, line, constant) of each call of _require under root, constant
    whether its witness is a string constant."""
    out = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        for n in ast.walk(ast.parse(path.read_text())):
            if not isinstance(n, ast.Call):
                continue
            name = getattr(n.func, "id", None) or getattr(n.func, "attr", None)
            if name != "_require":
                continue
            given = n.args[1:] + [k.value for k in n.keywords if k.arg == "witness"]
            constant = [
                isinstance(w, ast.Constant) and isinstance(w.value, str) for w in given
            ] == [True]
            out.append((rel, n.lineno, constant))
    return out


def test_a_passing_require_formats_no_witness():
    # _require's witness is built before the test it reports on, so it must
    # be a constant: a check whose witness needs formatting raises in its
    # failing branch instead
    calls = require_witnesses(SRC)
    assert calls
    assert [(rel, line) for rel, line, constant in calls if not constant] == []


def within_params(root):
    """(file, line, def) of each def under root that has a parameter named
    within."""
    out = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        for n in ast.walk(ast.parse(path.read_text())):
            if not isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = n.args
            params = (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
            if any(p is not None and p.arg == "within" for p in params):
                out.append((rel, n.lineno, n.name))
    return out


def test_only_build_lattice_takes_within():
    # a lattice's ambient is decided once, by build_lattice, and read from
    # TorsLattice.ambient everywhere else
    assert [(rel, name) for rel, _, name in within_params(SRC)] == [
        ("lattice.py", "build_lattice")
    ]


def _is_side_closure(n):
    """A read of subcat.fac or subcat.sub_cl, by attribute or by name."""
    if isinstance(n, ast.Attribute):
        return n.attr in ("fac", "sub_cl") and getattr(n.value, "id", None) == "subcat"
    return isinstance(n, ast.Name) and n.id in ("fac", "sub_cl")


def test_only_the_lattice_closes_a_side():
    # the smallest torsion (torsion-free) class containing a mask is
    # TorsLattice.gen, the one closure of a side: filt of fac (sub_cl) cut
    # down to the ambient; no second route reads fac or sub_cl
    assert uses_outside(SRC, _is_side_closure, {"TorsLattice.gen"}) == []
