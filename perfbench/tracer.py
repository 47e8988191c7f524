"""Span tracer for the caxial layers, installed from outside the package.

`Tracer.install()` wraps the public functions of each caxial module, a few
methods of its classes, and the numpy/scipy linear-algebra entry points the
package calls.  `from .x import y` copies a name into the importing module,
so every caxial module that holds a wrapped object gets the wrapper; and
`uninstall()` puts every original back.

Each wrapped call records one span [name, layer, start, end, parent].  The
spans stay in memory until the run ends; `metrics()` derives the per-layer
figures from them and `write_spans()` writes them out.  Work the tracer
does itself (hashing linalg inputs, sizing matrices) runs in spans of layer
"trace", so the self times of all layers add up to the time covered by the
outermost spans.

Per-element Lattice methods (`shift_site`, `wrap`, ...) are not wrapped:
they run millions of times on the larger instances, and their time counts
as self time of whichever layer called them.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import statistics
import time
from functools import cached_property

import numpy as np
import scipy.linalg

LAYERS = ("lattice", "fields", "averaging", "gaussian", "gauge_ops",
          "rg_flow", "spectral", "cli", "linalg")
MODULES = LAYERS[:-1]

# methods wrapped besides module-level functions; None means __init__ plus
# every public method, property and cached property of the class
METHODS = {
    "lattice": {"Lattice": ("__init__",)},
    "gaussian": {"AffineSurface": ("from_constraints",)},
    "gauge_ops": {"GaugeContext": None},
    "rg_flow": {"RGState": ("gauge_residual",)},
    "cli": {"Runner": ("check",)},
}

LINALG_OPS = ("svd", "pinv", "lstsq", "norm2", "cond", "eigh", "eigvalsh",
              "cholesky", "cho_solve", "inv", "solve")
SVD_CLASS = ("svd", "pinv", "lstsq", "norm2", "cond")

CACHES = ("get_context", "grad_matrix", "ext_d_matrix", "coarsened",
          "scalar_average_matrix", "bond_average_one", "bond_average_matrix",
          "toron_average_matrix", "path_average_matrix", "tree_path_matrix",
          "scalar_recovery_matrix", "fluctuation_split", "fluctuation_basis")

FIELD_ASSEMBLY = ("fields.grad_matrix", "fields.ext_d_matrix",
                  "fields.laplacian_matrix")
SURFACES = ("gaussian.AffineSurface.from_constraints",
            "gaussian.push_constraint", "gaussian.minimizer_map")
GAUGE_OPS_FUNCS = ("rep_check", "fine_green", "tilde_green",
                   "change_of_gauge_check", "decay_profile",
                   "axial_minimizer")
RG_FLOW_FUNCS = ("flow_states", "one_shot_state", "one_shot_final",
                 "z_constants", "minimizer_composition_residual",
                 "fluctuation_step")

# (metric name, unit), in the order run.py prints them
METRICS = (
    [(f"{layer}.{what}", unit) for layer in LAYERS
     for what, unit in (("calls", "count"), ("self_s", "s"))]
    + [("lattice.builds", "count"), ("lattice.sites_built", "count"),
       ("lattice.build_s", "s"), ("lattice.cache_entries", "count"),
       ("fields.assembly_s", "s"), ("averaging.assembly_s", "s"),
       ("averaging.dense_mb", "MB"), ("averaging.nonzero_ratio", "ratio")]
    + [(f"cache.{c}.{hm}", "count") for c in CACHES
       for hm in ("hits", "misses")]
    + [("cache.hit_ratio", "ratio"),
       ("gaussian.surfaces", "count"),
       ("gaussian.factorizations_per_surface", "ratio"),
       ("gauge_ops.contexts_built", "count")]
    + [(f"gauge_ops.{f}.self_s", "s") for f in GAUGE_OPS_FUNCS]
    + [(f"rg_flow.{f}.self_s", "s") for f in RG_FLOW_FUNCS]
    + [(f"linalg.{op}.{what}", unit) for op in LINALG_OPS
       for what, unit in (("calls", "count"), ("s", "s"),
                          ("gflop", "Gflop"))]
    + [("linalg.share", "ratio"), ("linalg.svd.repeat_ratio", "ratio"),
       ("cli.check_s.median", "s"), ("cli.check_s.max", "s"),
       ("cli.skipped_s", "s"), ("cli.report_s", "s"),
       ("trace.self_s", "s"), ("trace.spans", "count"),
       ("trace.wall_s", "s"), ("trace.overhead_s", "s")]
)


# -- flop counts --------------------------------------------------------------
# Leading-order textbook counts (Golub & Van Loan) computed from the operand
# shapes; they are not measured.

def _mn(a):
    a = np.asarray(a)
    batch = int(np.prod(a.shape[:-2])) if a.ndim > 2 else 1
    m, n = a.shape[-2:] if a.ndim >= 2 else (a.shape[0], 1)
    return batch, m, n


def _nrhs(b):
    b = np.asarray(b)
    return b.shape[-1] if b.ndim >= 2 else 1


def _svd_values(m, n):
    big, k = max(m, n), min(m, n)
    return 4.0 * big * k * k - 4.0 * k ** 3 / 3


def flops(op, args, kwargs):
    """Floating-point operations of one call, from its operand shapes."""
    if op == "cho_solve":
        c = np.asarray(args[0][0])
        return 2.0 * c.shape[0] ** 2 * _nrhs(args[1])
    batch, m, n = _mn(args[0])
    big, k = max(m, n), min(m, n)
    if op == "svd":
        full = args[1] if len(args) > 1 else kwargs.get("full_matrices", True)
        uv = args[2] if len(args) > 2 else kwargs.get("compute_uv", True)
        if not uv:
            f = _svd_values(m, n)
        elif full:
            f = 4.0 * big * big * k + 8.0 * big * k * k + 9.0 * k ** 3
        else:
            f = 14.0 * big * k * k + 8.0 * k ** 3
    elif op == "pinv":
        f = 14.0 * big * k * k + 8.0 * k ** 3 + 2.0 * m * n * k
    elif op == "lstsq":
        f = _svd_values(m, n) + 4.0 * m * n * _nrhs(args[1])
    elif op in ("norm2", "cond"):
        f = _svd_values(m, n)
    elif op == "eigh":
        f = 9.0 * n ** 3
    elif op == "eigvalsh":
        f = 4.0 * n ** 3 / 3
    elif op == "cholesky":
        f = n ** 3 / 3.0
    elif op == "inv":
        f = 2.0 * n ** 3
    elif op == "solve":
        f = 2.0 * n ** 3 / 3 + 2.0 * n * n * _nrhs(args[1])
    else:
        raise ValueError(op)
    return batch * f


def _matrices(out):
    """The dense matrices an assembly function returned."""
    if isinstance(out, np.ndarray):
        return [out]
    if isinstance(getattr(out, "matrix", None), np.ndarray):
        return [out.matrix]          # PathAverageMap
    if isinstance(getattr(out, "levels", None), tuple):
        return list(out.levels)      # ConstraintStack
    return []


class Tracer:
    def __init__(self):
        self.spans = []      # [name, layer, start, end, parent index]
        self.notes = {}      # span index -> dict recorded by a post hook
        self._stack = []
        self._patches = []   # (module, class or dict; name or key; original)
        self._caches = {}    # cache name -> original lru_cache object
        self._seen = set()   # keys of matrices given to SVD-class calls
        self._modules = {}
        self._assembly = set()   # span names of averaging assembly functions

    # -- wrapping -------------------------------------------------------------

    def _hook(self, fn, *args):
        spans, stack = self.spans, self._stack
        rec = [f"trace.{fn.__name__}", "trace", time.perf_counter(), 0.0,
               stack[-1] if stack else -1]
        spans.append(rec)
        try:
            return fn(*args)
        finally:
            rec[3] = time.perf_counter()

    def _traced(self, name, layer, fn, pre=None, post=None):
        spans, stack, notes = self.spans, self._stack, self.notes
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = self._hook(pre, args, kwargs) if pre else None
            i = len(spans)
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(i)
            rec[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if post:
                notes[i] = self._hook(post, state, args, kwargs, out)
            return out
        for attr in ("cache_info", "cache_clear", "cache_parameters"):
            if hasattr(fn, attr):          # keep an lru_cache usable
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- hooks ----------------------------------------------------------------

    def _linalg_hooks(self, op):
        def key(args, kwargs):
            a = np.ascontiguousarray(args[0])
            k = (a.shape, a.dtype.str,
                 hashlib.blake2b(a.view(np.uint8).ravel(),
                                 digest_size=16).digest())
            repeat = k in self._seen
            self._seen.add(k)
            return repeat

        def size(repeat, args, kwargs, out):
            return {"op": op, "repeat": repeat,
                    "gflop": flops(op, args, kwargs) / 1e9}
        return (key if op in SVD_CLASS else None), size

    def _assembly_hooks(self, fn):
        cached = hasattr(fn, "cache_info")

        def misses(args, kwargs):
            return fn.cache_info().misses if cached else None

        def dense(before, args, kwargs, out):
            if cached and fn.cache_info().misses == before:
                return None              # served from the cache
            mats = _matrices(out)
            return {"bytes": sum(m.nbytes for m in mats),
                    "entries": sum(m.size for m in mats),
                    "nonzeros": sum(int(np.count_nonzero(m)) for m in mats)}
        return misses, dense

    @staticmethod
    def _lattice_size(state, args, kwargs, out):
        return {"sites": args[0].n_sites}

    @staticmethod
    def _check_status(state, args, kwargs, out):
        return {"status": out["status"]}

    # -- install / uninstall ----------------------------------------------------

    def install(self):
        import caxial
        mods = {m: importlib.import_module(f"caxial.{m}") for m in MODULES}
        self._modules = mods
        wrappers = {}        # id(original) -> (original, wrapper)
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                if hasattr(obj, "cache_info"):
                    self._caches[name.lstrip("_")] = obj
                if (name.startswith("_") or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                pre = post = None
                if layer == "averaging" and (
                        name.endswith("_matrix")
                        or name in ("axial_constraint_stack",
                                    "fluctuation_basis")):
                    pre, post = self._assembly_hooks(obj)
                    self._assembly.add(f"{layer}.{name}")
                wrappers[id(obj)] = (obj, self._traced(
                    f"{layer}.{name}", layer, obj, pre, post))
        for mod in (caxial, *mods.values()):
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, name, hit[1])
                elif isinstance(obj, dict):        # e.g. cli.SUITE_FUNCS
                    for key, value in list(obj.items()):
                        hit = wrappers.get(id(value))
                        if hit is not None and hit[0] is value:
                            self._patches.append((obj, key, value))
                            obj[key] = hit[1]

        for layer, classes in METHODS.items():
            for cname, names in classes.items():
                cls = getattr(mods[layer], cname, None)
                if cls is None:
                    continue
                if names is None:
                    names = ["__init__"] + [
                        n for n, v in vars(cls).items()
                        if not n.startswith("_") and (
                            inspect.isfunction(v)
                            or isinstance(v, (property, cached_property)))]
                for n in names:
                    if n in cls.__dict__:
                        self._wrap_method(layer, cls, n)

        for op, owner, attr in (
                ("svd", np.linalg, "svd"), ("pinv", np.linalg, "pinv"),
                ("lstsq", np.linalg, "lstsq"), ("cond", np.linalg, "cond"),
                ("eigh", np.linalg, "eigh"),
                ("eigvalsh", np.linalg, "eigvalsh"),
                ("cholesky", np.linalg, "cholesky"),
                ("inv", np.linalg, "inv"), ("solve", np.linalg, "solve"),
                ("cho_solve", scipy.linalg, "cho_solve")):
            pre, post = self._linalg_hooks(op)
            self._set(owner, attr, self._traced(
                f"linalg.{op}", "linalg", getattr(owner, attr), pre, post))
        self._set(np.linalg, "norm", self._norm(np.linalg.norm))
        return self

    def _wrap_method(self, layer, cls, n):
        raw = cls.__dict__[n]
        name = f"{layer}.{cls.__name__}.{n}"
        post = {"Lattice.__init__": self._lattice_size,
                "Runner.check": self._check_status}.get(f"{cls.__name__}.{n}")
        if isinstance(raw, classmethod):
            new = classmethod(self._traced(name, layer, raw.__func__))
        elif isinstance(raw, cached_property):
            new = cached_property(self._traced(name, layer, raw.func))
            new.__set_name__(cls, n)
        elif isinstance(raw, property):
            new = property(self._traced(name, layer, raw.fget))
        else:
            new = self._traced(name, layer, raw, post=post)
        self._set(cls, n, new)

    def _norm(self, norm):
        """Trace np.linalg.norm only as the spectral 2-norm of a matrix."""
        pre, post = self._linalg_hooks("norm2")
        traced = self._traced("linalg.norm2", "linalg", norm, pre, post)

        @functools.wraps(norm)
        def wrapper(x, *args, **kwargs):
            ord_ = args[0] if args else kwargs.get("ord")
            axis = args[1] if len(args) > 1 else kwargs.get("axis")
            if ord_ == 2 and axis is None and np.ndim(x) == 2:
                return traced(x, *args, **kwargs)
            return norm(x, *args, **kwargs)
        return wrapper

    # -- derived metrics --------------------------------------------------------

    def self_times(self):
        spans = self.spans
        own = [s[3] - s[2] for s in spans]
        for s in spans:
            if s[4] >= 0:
                own[s[4]] -= s[3] - s[2]
        return own

    def _outermost(self, names):
        spans = self.spans
        out = []
        for i, s in enumerate(spans):
            if s[0] not in names:
                continue
            p = s[4]
            while p >= 0 and spans[p][0] not in names:
                p = spans[p][4]
            if p < 0:
                out.append(i)
        return out

    def _under(self, i, names):
        p = self.spans[i][4]
        while p >= 0:
            if self.spans[p][0] in names:
                return True
            p = self.spans[p][4]
        return False

    def metrics(self) -> dict:
        """Per-layer figures of the run, keyed by the names in METRICS."""
        spans, notes = self.spans, self.notes
        own = self.self_times()
        dur = [s[3] - s[2] for s in spans]
        m = {name: 0 if unit == "count" else 0.0 for name, unit in METRICS}
        for i, s in enumerate(spans):
            m[f"{s[1]}.calls"] = m.get(f"{s[1]}.calls", 0) + 1
            m[f"{s[1]}.self_s"] = m.get(f"{s[1]}.self_s", 0.0) + own[i]
        m.pop("trace.calls", None)

        def total(idx):
            return float(sum(dur[i] for i in idx))

        def named(suffix):
            return [i for i, s in enumerate(spans) if s[0].endswith(suffix)]

        builds = named(".Lattice.__init__")
        m["lattice.builds"] = len(builds)
        m["lattice.sites_built"] = sum(notes[i]["sites"] for i in builds
                                       if notes.get(i))
        m["lattice.build_s"] = total(builds)
        m["lattice.cache_entries"] = len(
            getattr(self._modules["lattice"], "_lattice_cache", ()))

        m["fields.assembly_s"] = total(self._outermost(FIELD_ASSEMBLY))
        m["averaging.assembly_s"] = total(self._outermost(self._assembly))
        dense = [n for n in notes.values() if n and "bytes" in n]
        m["averaging.dense_mb"] = sum(n["bytes"] for n in dense) / 2 ** 20
        entries = sum(n["entries"] for n in dense)
        m["averaging.nonzero_ratio"] = (
            sum(n["nonzeros"] for n in dense) / entries if entries else 0.0)

        hits = misses = 0
        for c in CACHES:
            fn = self._caches.get(c)
            info = fn.cache_info() if fn is not None else None
            m[f"cache.{c}.hits"] = info.hits if info else 0
            m[f"cache.{c}.misses"] = info.misses if info else 0
            hits += m[f"cache.{c}.hits"]
            misses += m[f"cache.{c}.misses"]
        m["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

        surfaces = len(self._outermost(SURFACES))
        m["gaussian.surfaces"] = surfaces
        factorizations = sum(
            1 for i, s in enumerate(spans)
            if s[1] == "linalg" and notes.get(i, {}).get("op") in SVD_CLASS
            and self._under(i, SURFACES))
        m["gaussian.factorizations_per_surface"] = (
            factorizations / surfaces if surfaces else 0.0)
        m["gauge_ops.contexts_built"] = len(
            named(".GaugeContext.__init__"))
        for layer, funcs in (("gauge_ops", GAUGE_OPS_FUNCS),
                             ("rg_flow", RG_FLOW_FUNCS)):
            for f in funcs:
                m[f"{layer}.{f}.self_s"] = float(
                    sum(own[i] for i in named(f".{f}") if spans[i][1] == layer))

        svd_calls = repeats = 0
        linalg_s = 0.0
        for i, s in enumerate(spans):
            n = notes.get(i)
            if s[1] != "linalg" or not n:
                continue
            op = n["op"]
            m[f"linalg.{op}.calls"] += 1
            m[f"linalg.{op}.s"] += dur[i]
            m[f"linalg.{op}.gflop"] += n["gflop"]
            linalg_s += dur[i]
            if op in SVD_CLASS:
                svd_calls += 1
                repeats += bool(n["repeat"])
        run = named(".run_verification")
        wall = total(run)
        m["linalg.share"] = linalg_s / wall if wall else 0.0
        m["linalg.svd.repeat_ratio"] = repeats / svd_calls if svd_calls else 0.0

        checks = named(".Runner.check")
        if checks:
            m["cli.check_s.median"] = statistics.median(dur[i] for i in checks)
            m["cli.check_s.max"] = max(dur[i] for i in checks)
            m["cli.skipped_s"] = total(
                i for i in checks if notes[i]["status"] == "SKIPPED")
        if run:
            last_check = max((spans[i][3] for i in checks),
                             default=spans[run[0]][2])
            m["cli.report_s"] = spans[run[0]][3] - last_check
        m["trace.spans"] = len(spans)
        m["trace.wall_s"] = wall
        # trace.overhead_s needs the untraced runs; run.py fills it in
        return m

    def write_spans(self, path, run_id):
        with open(path, "w") as fh:
            fh.write("run_id\tspan\tname\tlayer\tstart\tend\tparent\n")
            for i, (name, layer, start, end, parent) in enumerate(self.spans):
                fh.write(f"{run_id}\t{i}\t{name}\t{layer}\t{start:.9f}\t"
                         f"{end:.9f}\t{parent}\n")
