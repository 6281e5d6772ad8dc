"""Outside-in tracer for the torslat layers.

The layers are the package's modules.  ``install`` wraps every public
function of each layer module and every public method of ``Catalog`` and
``TorsLattice``, and rebinds each reference to them in the package, the
``from ... import`` copies included.  The check generators in
``verify.PROPERTY_FUNCS`` are wrapped too, so time is charged per property.
No library file changes.

A span is recorded only while a root span is open, so calls the runner
makes between timed jobs pass straight through.  Spans are not kept one by
one (verify-suite makes millions of calls); each finished span is added to
an aggregate keyed by (function, caller): calls, total time and self time.
Self time is a span's duration minus that of its child spans, so the self
times of all spans add up to the time spent in root spans.  Total time is
counted only for the outermost active span of a function, so recursion is
not counted twice.
"""

import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("quivalg", "linalg", "modrep", "catalog", "subcat", "lattice", "widelab", "verify")
CLASSES = {"catalog": ("Catalog",), "lattice": ("TorsLattice",)}
ROOT = "bench"


def layer_of(name):
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self, tl):
        self.tl = tl
        self.stack = []
        # (name, caller) -> [calls, total seconds, self seconds]
        self.agg = {}
        self.depth = defaultdict(int)
        self.counts = defaultdict(int)
        self._undo = []

    # ------------------------------------------------------------ recording

    def reset(self):
        self.agg.clear()
        self.counts.clear()

    def _record(self, name, caller, calls, dur, child):
        d = self.depth[name] - 1
        self.depth[name] = d
        rec = self.agg.get((name, caller))
        if rec is None:
            rec = self.agg[(name, caller)] = [0, 0.0, 0.0]
        rec[0] += calls
        if d == 0:
            rec[1] += dur
        rec[2] += dur - child

    def root(self, fn, *args):
        """Call fn inside a root span; the only way recording starts."""
        frame = [ROOT, 0.0]
        self.stack.append(frame)
        self.depth[ROOT] += 1
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            dur = perf_counter() - start
            self.stack.pop()
            self._record(ROOT, "", 1, dur, frame[1])

    def _wrap(self, name, fn, observe=None):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        stack, depth, record = self.stack, self.depth, self._record

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            caller = stack[-1][0]
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] += 1
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                stack[-1][1] += dur
                record(name, caller, 1, dur, frame[1])
            if observe is not None:
                observe(self, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name, fn):
        """Count a call when the generator is made; time each resumption."""
        stack = self.stack

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not stack:
                return gen
            rec = self.agg.setdefault((name, stack[-1][0]), [0, 0.0, 0.0])
            rec[0] += 1
            return self._resume(name, gen)

        traced.__wrapped__ = fn
        return traced

    def _resume(self, name, gen):
        stack, depth = self.stack, self.depth
        while stack:
            caller = stack[-1][0]
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] += 1
            start = perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                dur = perf_counter() - start
                stack.pop()
                stack[-1][1] += dur
                self._record(name, caller, 0, dur, frame[1])
            yield item
        yield from gen

    # ------------------------------------------------------------ install

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        tl = self.tl
        wrappers = {}
        for layer in LAYERS:
            mod = getattr(tl, layer)
            for attr, obj in list(vars(mod).items()):
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj, OBSERVE.get(f"{layer}.{attr}")))
            for cls_name in CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                for attr, obj in list(vars(cls).items()):
                    if not attr.startswith("_") and inspect.isfunction(obj):
                        self._set(cls, attr, self._wrap(f"{layer}.{cls_name}.{attr}", obj))
        for modname, mod in list(sys.modules.items()):
            if modname != tl.__name__ and not modname.startswith(tl.__name__ + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
        self._install_properties()
        self._install_cache_counters()

    def _install_properties(self):
        funcs = self.tl.verify.PROPERTY_FUNCS
        for prop, gen_fn in list(funcs.items()):
            name = f"verify.{prop}"

            def checks(ctx, gen_fn=gen_fn, name=name):
                for obj, thunk in self._resume(name, gen_fn(ctx)):
                    yield obj, self._wrap(name, thunk)

            self._undo.append((funcs, prop, gen_fn))
            funcs[prop] = checks

    def _install_cache_counters(self):
        """Count op_cache lookups in subcat._cached and every new op_cache entry."""
        subcat = self.tl.subcat
        cached = subcat._cached
        counts, stack = self.counts, self.stack

        def counting(cat, key, fn):
            if stack:
                counts["subcat.op_cache.lookups"] += 1
                counts["subcat.op_cache.hits"] += key in cat.op_cache
            return cached(cat, key, fn)

        class CountingDict(dict):
            def __setitem__(self, key, value):
                if stack and key not in self:
                    counts["subcat.op_cache.entries"] += 1
                super().__setitem__(key, value)

        catalog_cls = self.tl.catalog.Catalog
        init = catalog_cls.__init__

        def counting_init(cat, *args, **kwargs):
            init(cat, *args, **kwargs)
            cat.op_cache = CountingDict()

        self._set(subcat, "_cached", counting)
        self._set(catalog_cls, "__init__", counting_init)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # ------------------------------------------------------------ summary

    def summary(self):
        """Per-function and per-layer totals of the aggregate."""
        by_name = defaultdict(lambda: [0, 0.0, 0.0])
        layer = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, caller), (calls, total, self_s) in self.agg.items():
            rec = by_name[name]
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
            lrec = layer[layer_of(name)]
            if layer_of(caller) != layer_of(name):
                lrec[0] += calls
                lrec[1] += total
            lrec[2] += self_s
        return by_name, layer

    def calls_from(self, name, caller):
        rec = self.agg.get((name, caller))
        return rec[0] if rec else 0


def _count(key, size=len):
    def observe(tracer, out):
        tracer.counts[key] += size(out)

    return observe


def _observe_lattice(tracer, lat):
    tracer.counts["lattice.nodes"] += len(lat)
    tracer.counts["lattice.arrows"] += len(lat.arrows)


OBSERVE = {
    "modrep.is_isomorphic": _count("modrep.is_isomorphic.true", bool),
    "modrep.all_extensions": _count("modrep.all_extensions.results"),
    "modrep.submodules": _count("modrep.submodules.results"),
    "catalog.enumerate_indecomposables": _count("catalog.indecomposables"),
    "lattice.build_lattice": _observe_lattice,
    "verify.run_verify": _count("verify.checks"),
}


def unit_of(metric):
    if metric.endswith((".s", "_s")):
        return "s"
    return "ratio" if metric.endswith("_frac") else "count"


def _frac(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tracer, properties):
    """The per-layer metrics of one traced pass, by name.

    ``<layer>.calls`` counts calls that enter the layer from another layer;
    ``<layer>.self_s`` is the layer's self time.  A function that no longer
    exists reads as 0 calls and 0 seconds.
    """
    fn, layer = tracer.summary()
    c = tracer.counts

    def calls(name):
        return fn[name][0]

    def total(name):
        return fn[name][1]

    def self_s(name):
        return fn[name][2]

    m = {f"{name}.self_s": layer[name][2] for name in LAYERS}
    # filled in by the runner: set-up time in quivalg, and traced / untraced wall - 1
    m["quivalg.parse_s"] = 0.0
    m["trace.overhead_frac"] = 0.0
    m["linalg.calls"] = layer["linalg"][0]
    m["linalg.rref.calls"] = calls("linalg.rref")
    m["linalg.rref.self_s"] = self_s("linalg.rref")
    m["linalg.is_invertible.calls"] = calls("linalg.is_invertible")
    for f in ("hom_basis", "is_isomorphic", "all_extensions", "submodules",
              "decompose", "kernel_image_cokernel"):
        m[f"modrep.{f}.calls"] = calls(f"modrep.{f}")
    m["modrep.is_isomorphic.s"] = total("modrep.is_isomorphic")
    m["modrep.is_isomorphic.true_frac"] = _frac(
        c["modrep.is_isomorphic.true"], calls("modrep.is_isomorphic")
    )
    m["modrep.all_extensions.s"] = total("modrep.all_extensions")
    m["modrep.all_extensions.results"] = c["modrep.all_extensions.results"]
    m["modrep.submodules.results"] = c["modrep.submodules.results"]
    m["modrep.decompose.s"] = total("modrep.decompose")
    m["catalog.indecomposables"] = c["catalog.indecomposables"]
    for f in ("enumerate_indecomposables", "verify_closure", "build_tables"):
        m[f"catalog.{f}.s"] = total(f"catalog.{f}")
    m["catalog.hom_profile.s"] = total("catalog.Catalog.hom_profile")
    lookups = calls("catalog.Catalog.decompose_indices")
    m["catalog.decompose_indices.calls"] = lookups
    m["catalog.decompose_indices.hit_frac"] = _frac(
        lookups - tracer.calls_from("modrep.decompose", "catalog.Catalog.decompose_indices"),
        lookups,
    )
    m["subcat.calls"] = layer["subcat"][0]
    for f in ("tors_gen", "filt", "perp_right", "star"):
        m[f"subcat.{f}.calls"] = calls(f"subcat.{f}")
    m["subcat.filt.self_s"] = self_s("subcat.filt")
    m["subcat.perp_right.self_s"] = self_s("subcat.perp_right")
    m["subcat.op_cache.entries"] = c["subcat.op_cache.entries"]
    m["subcat.op_cache.hit_frac"] = _frac(
        c["subcat.op_cache.hits"], c["subcat.op_cache.lookups"]
    )
    m["lattice.build_lattice.calls"] = calls("lattice.build_lattice")
    m["lattice.build_lattice.s"] = total("lattice.build_lattice")
    m["lattice.nodes"] = c["lattice.nodes"]
    m["lattice.arrows"] = c["lattice.arrows"]
    m["lattice.join.calls"] = calls("lattice.TorsLattice.join")
    m["lattice.labels_of.s"] = total("lattice.TorsLattice.labels_of")
    for f in ("is_wide_interval", "reduce_interval", "left_wide"):
        m[f"widelab.{f}.calls"] = calls(f"widelab.{f}")
    m["widelab.reduce_interval.s"] = total("widelab.reduce_interval")
    m["verify.checks"] = c["verify.checks"]
    for prop in properties:
        m[f"verify.{prop}.s"] = total(f"verify.{prop}")
    return m
