"""Per-layer tracing of mfvc from outside the package.

`Tracer.install()` wraps the public functions and methods of every mfvc
module, then rebinds each name another module imported (`compare.hom_table`,
`mf.nullspace`, ...) to the wrapper.  Most wrappers record a span (name,
parent, item, start, end, error flag) in flat arrays kept in memory; a few
functions called millions of times per item only count calls.  Hooks read
arguments and results where a layer metric needs a size.  `uninstall()`
restores every original binding.

The layer of a span is its module, without the leading underscore
(`_linalg` -> `linalg`), so every metric name starts with a letter.
"""

import gzip
import inspect
import importlib
import os
from array import array
from collections import Counter
from time import perf_counter

MODULES = ("_linalg", "grading", "polyring", "mf", "directed", "bside", "aside",
           "compare", "cli", "transport", "_kernels")
LAYERS = tuple(m.lstrip("_") for m in MODULES)

# Cheap accessors and cache lookups, called up to millions of times per
# sweep; a span each would cost more time and memory than the work it
# measures, so these only count calls and their time falls into the calling
# span's self time.
COUNT_ONLY = {
    "grading.GroupElement.__init__", "grading.GroupElement.weight",
    "grading.GroupElement.mod_c", "grading.GroupElement.is_zero",
    "grading.GradingGroup.reduce_vec", "grading.GradingGroup.weight",
    "grading.GradingGroup.reduce_mod_c_vec", "grading.GradingGroup.monomial_degree",
    "grading.GradingGroup.element", "grading.GradingGroup.reduce",
    "polyring.mono_key", "polyring.mono_mul", "polyring.mono_divides",
    "polyring.mono_div", "polyring.mono_lcm", "polyring.mono_str",
    "polyring.Poly.monomial", "polyring.Poly.constant", "polyring.Poly.zero",
    "polyring.Poly.lead", "polyring.Poly.mul_mono", "polyring.Poly.monic",
    "polyring.Poly.degree_in", "polyring.QuotientRing.is_standard",
    "polyring.QuotientRing.nf_mono", "polyring.QuotientRing.nf",
    "mf.mat_mul", "mf.mat_sub", "mf.mat_add", "mf.mat_is_zero", "mf.mat_scale",
    "mf.CyclicModule.piece", "mf.CyclicModule.nf", "mf.CyclicModule.total_shift",
    "mf.MatrixFactorisation.term_shifts", "mf.HomCohomology.term", "mf.HomCohomology.diff",
    "polyring.QuotientRing.standard_monomials_exact",
    "polyring.QuotientRing.monomials_of_exact_degree",
    "bside.HomTable.dim", "bside.HomTable.cohomology", "bside.expected_hom_dim",
    "directed.DirectedAlgebra.nonzero_pairs",
    "directed.DirectedAlgebra.hom_dim", "directed.DirectedAlgebra.coefficient",
    "directed.DirectedAlgebra.generator_degree",
    "aside.theta_turns", "aside.interior_args", "aside.phi_profile",
    "families.FamilySpec.label",
}

# Constructors traced besides the public methods.
INITS = {"grading.GradingGroup", "grading.GroupElement", "polyring.QuotientRing"}


class Tracer:
    """Spans and counters for one traced run; see the module docstring."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.err = array("b")
        self._stack = [-1]
        self.current_item = -1
        self.calls = Counter()
        self.errors = Counter()
        self.values = Counter()      # sums and maxima filled by hooks
        self.monomial_keys = set()
        self._restore = []

    # -- recording -----------------------------------------------------------

    def name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name):
        idx = len(self.t0)
        self.name.append(self.name_id(name) if isinstance(name, str) else name)
        self.parent.append(self._stack[-1])
        self.item.append(self.current_item)
        self.err.append(0)
        self.t1.append(0.0)
        self.t0.append(perf_counter())
        self._stack.append(idx)
        return idx

    def close(self, idx, failed=False):
        self.t1[idx] = perf_counter()
        self._stack.pop()
        if failed:
            self.err[idx] = 1

    def span_wrapper(self, fn, name, hook=None, pre=None):
        nid = self.name_id(name)
        calls, errors = self.calls, self.errors
        opener, closer = self.open, self.close

        def wrapper(*args, **kwargs):
            calls[name] += 1
            before = pre(args, kwargs) if pre is not None else None
            idx = opener(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                closer(idx, True)
                errors[name] += 1
                raise
            closer(idx)
            if hook is not None:
                hook(self, args, kwargs, out, before)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def count_wrapper(self, fn, name, hook=None, pre=None):
        calls = self.calls

        if hook is None:
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                calls[name] += 1
                before = pre(args, kwargs) if pre is not None else None
                out = fn(*args, **kwargs)
                hook(self, args, kwargs, out, before)
                return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installation --------------------------------------------------------

    def _setattr(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, fn, name):
        make = self.count_wrapper if name in COUNT_ONLY else self.span_wrapper
        return make(fn, name, HOOKS.get(name), PRE_HOOKS.get(name))

    def install(self):
        """Wrap every public function and method of the mfvc modules."""
        mods = {m: importlib.import_module(f"mfvc.{m}") for m in MODULES + ("families",)}
        wrapped = {}  # id(original function) -> wrapper
        for mname, mod in mods.items():
            layer = mname.lstrip("_")
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    wrapper = self._wrap(obj, f"{layer}.{attr}")
                    wrapped[id(obj)] = wrapper
                    self._setattr(mod, attr, wrapper)
                elif inspect.isclass(obj):
                    self._install_class(obj, f"{layer}.{attr}")
        # rebind names other modules imported with `from .x import y`
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = wrapped.get(id(obj))
                if wrapper is not None and obj is not wrapper:
                    self._setattr(mod, attr, wrapper)
        return self

    def _install_class(self, cls, qual):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and not (attr == "__init__" and qual in INITS):
                continue
            if isinstance(obj, classmethod):
                self._setattr(cls, attr, classmethod(self._wrap(obj.__func__, f"{qual}.{attr}")))
            elif isinstance(obj, staticmethod):
                self._setattr(cls, attr, staticmethod(self._wrap(obj.__func__, f"{qual}.{attr}")))
            elif inspect.isfunction(obj):
                self._setattr(cls, attr, self._wrap(obj, f"{qual}.{attr}"))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- output --------------------------------------------------------------

    def write(self, path, header):
        """Write a header comment, then every span as one tab-separated line,
        to a gzip file."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(f"# {header}\n")
            fh.write("id\tparent\titem\tname\tstart_s\tend_s\terror\n")
            base = self.t0[0] if self.t0 else 0.0
            names = self.names
            for i in range(len(self.t0)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.item[i]}\t{names[self.name[i]]}\t"
                         f"{self.t0[i] - base:.9f}\t{self.t1[i] - base:.9f}\t{self.err[i]}\n")


def self_times(names, name, parent, t0, t1):
    """Self time per span name: each span's duration minus its children's.

    Spans of one thread nest, so the children of a span cover disjoint parts
    of its interval and their durations can simply be subtracted."""
    child = [0.0] * len(t0)
    for i in range(len(t0)):
        p = parent[i]
        if p >= 0:
            child[p] += t1[i] - t0[i]
    out = Counter()
    for i in range(len(t0)):
        out[names[name[i]]] += (t1[i] - t0[i]) - child[i]
    return out


def inclusive_times(names, name, t0, t1):
    out = Counter()
    for i in range(len(t0)):
        out[names[name[i]]] += t1[i] - t0[i]
    return out


# ---------------------------------------------------------------------------
# hooks: sizes read from arguments and results


def _term_cached(args, kwargs):
    return args[1] in args[0]._terms


def _term_dim(tr, args, kwargs, out, cached):
    if not cached:  # count each term once, when it is built
        tr.values["mf.term_dim.sum"] += len(out)
        tr.values["mf.term_dim.max"] = max(tr.values["mf.term_dim.max"], len(out))


def _groebner(tr, args, kwargs, out, before):
    tr.values["polyring.groebner.basis_max"] = max(tr.values["polyring.groebner.basis_max"], len(out))


def _monomials(tr, args, kwargs, out, before):
    group, d = args[0], args[1]
    tr.monomial_keys.add((group.family, group.p, group.q, d.vec))


def _matrix(tr, args, kwargs, out, before):
    rows = args[0]
    cols = len(rows[0]) if rows else (args[1] if len(args) > 1 and isinstance(args[1], int)
                                      else kwargs.get("ncols") or 0)
    tr.values["linalg.cells"] += len(rows) * cols
    tr.values["linalg.cols.max"] = max(tr.values["linalg.cols.max"], cols)


def _extract_quiver(tr, args, kwargs, out, before):
    quiver, paths = out
    tr.values["directed.paths"] += sum(len(pl) for bucket in paths.values() for pl in bucket.values())
    tr.values["directed.relations"] += len(quiver.relations)


def _hom_table(tr, args, kwargs, out, before):
    tr.values["bside.objects"] += len(out.objects)


def _newton_report(tr, args, kwargs, out, before):
    tr.values["aside.newton.ok"] += bool(out["ok"])


def _mirror_check(tr, args, kwargs, out, before):
    from mfvc.bside import DEGREE_WINDOW

    window = args[1] if len(args) > 1 else kwargs.get("window", DEGREE_WINDOW)
    n = out["objects"]
    tr.values["compare.cells"] += n * (n - 1) * (window[1] - window[0] + 1)


def _transport(tr, args, kwargs, out, before):
    tr.values["transport.steps"] += out["steps"]


def _kernel_transport(tr, args, kwargs, out, before):
    tr.values["kernels.transport.steps"] += int(out[2])


def _newton_enumerate(tr, args, kwargs, out, before):
    tr.values["kernels.newton.seeds"] += len(args[4])
    tr.values["kernels.newton.converged"] += int(out[2].sum())


PRE_HOOKS = {"mf.HomCohomology.term": _term_cached}

HOOKS = {
    "mf.HomCohomology.term": _term_dim,
    "polyring.groebner": _groebner,
    "polyring.monomials_of_exact_degree": _monomials,
    "linalg.rank": _matrix,
    "linalg.nullspace": _matrix,
    "linalg.solve": _matrix,
    "directed.extract_quiver": _extract_quiver,
    "bside.hom_table": _hom_table,
    "aside.numeric_morsification_check": _newton_report,
    "compare.mirror_check": _mirror_check,
    "transport.integrate_parallel_transport": _transport,
    "kernels.transport": _kernel_transport,
    "kernels.newton_enumerate": _newton_enumerate,
}
