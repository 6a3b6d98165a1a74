"""Span tracing of one mddkit experiment, attached from outside the library.

``Tracer.install()`` replaces the public functions and methods named in
README.md with wrappers that record a span (name, start, end, parent) and a
few counts, and ``Tracer.uninstall()`` puts the originals back. Functions
that other modules import by name (``from .statscore import quadrature_1d``)
are replaced in every mddkit module that holds them. Spans stay in memory
until the run ends.

A span's self time is its duration minus the durations of its direct child
spans; children of one parent never overlap because the library is single
threaded.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

KERNEL_MODULES = ("var", "sfm", "lpm")
KERNEL_METHODS = ("vb_fit", "posterior_sampler", "full_conditional", "gibbs_sweep")
WEIGHTING_TAGS = ("vb", "prior", "geweke", "swz", "pmd", "vb-cdl")
CELL_METHODS = ("ris-vb", "bs-vb", "is-vb", "ris-pmd", "bs-pmd", "ris-geweke", "ris-prior",
                "ris-swz", "chm", "chib", "ris-vb-cdl", "bs-vb-cdl")
# blocks updated by random-walk Metropolis: (kernel module, block)
MH_BLOCKS = (("lpm", "beta"), ("sfm", "theta"))

# weighting builders, by the module attribute the harness calls them through
_BUILDERS = {
    ("estimators", "make_vb_weighting"): "vb",
    ("estimators", "make_prior_weighting"): "prior",
    ("estimators", "make_geweke_weighting"): "geweke",
    ("estimators", "make_swz_weighting"): "swz",
    ("estimators", "make_pmd_weighting"): "pmd",
    ("sfm", "make_sfm_exp_cdl_weighting"): "vb-cdl",
    ("sfm", "make_sfm_gamma_cdl_weighting"): "vb-cdl",
}
# estimator cells: function -> (method prefix, position and name of the weighting argument)
_CELLS = {
    "ris_estimate": ("ris", 2, "h"),
    "bs_estimate": ("bs", 2, "g"),
    "is_estimate": ("is", 1, "f"),
    "chm_estimate": ("chm", None, None),
    "chib_estimate": ("chib", None, None),
}


def per_layer_spec() -> dict:
    """Per-layer metric name -> (unit, (kind, key[, key2])).

    Kinds: "incl", "self" and "calls" of the spans named key; "count" of the
    counter key; "per_call" is counter key over the calls of span key2;
    "ratio" is counter key over counter key2."""
    spec = {
        "harness.build_context.self_s": ("s", ("self", "harness.build_context")),
        "harness.emit_outputs_s": ("s", ("incl", "harness.emit_outputs")),
        "harness.emit_outputs.bytes": ("bytes", ("count", "harness.emit_outputs.bytes")),
        "harness.warnings": ("count", ("count", "harness.warnings")),
    }
    for m in KERNEL_MODULES:
        spec.update({
            f"{m}.vb_fit_s": ("s", ("incl", f"{m}.vb_fit")),
            f"{m}.vb_fit.self_s": ("s", ("self", f"{m}.vb_fit")),
            f"{m}.vb_fit.iterations": ("count", ("count", f"{m}.vb_fit.iterations")),
            f"{m}.vb_fit.converged": ("count", ("count", f"{m}.vb_fit.converged")),
            f"{m}.posterior_sampler_s": ("s", ("self", f"{m}.posterior_sampler")),
            f"{m}.full_conditional_s": ("s", ("self", f"{m}.full_conditional")),
            f"{m}.full_conditional.calls": ("count", ("calls", f"{m}.full_conditional")),
            f"{m}.gibbs_sweep_s": ("s", ("self", f"{m}.gibbs_sweep")),
            f"{m}.gibbs_sweep.calls": ("count", ("calls", f"{m}.gibbs_sweep")),
        })
    for p in KERNEL_MODULES + ("sfm.cdl",):
        span = f"{p}.log_kernel_batch"
        spec.update({
            f"{span}_s": ("s", ("self", span)),
            f"{span}.calls": ("count", ("calls", span)),
            f"{span}.rows": ("count", ("count", f"{span}.rows")),
            f"{span}.rows_per_call": ("rows", ("per_call", f"{span}.rows", span)),
        })
    for m, block in MH_BLOCKS:
        spec[f"{m}.mh_move_rate.{block}"] = (
            "ratio", ("ratio", f"{m}.mh_moved.{block}", f"{m}.mh_steps.{block}"))
    for fn in ("ln_parabolic_cylinder_d", "quadrature_1d"):
        spec[f"statscore.{fn}_s"] = ("s", ("self", f"statscore.{fn}"))
        spec[f"statscore.{fn}.calls"] = ("count", ("calls", f"statscore.{fn}"))
    spec["modelapi.unpack_batch_s"] = ("s", ("self", "modelapi.unpack_batch"))
    spec["modelapi.unpack_batch.calls"] = ("count", ("calls", "modelapi.unpack_batch"))
    for tag in WEIGHTING_TAGS:
        w = f"estimators.weighting.{tag}"
        spec[f"{w}.build_s"] = ("s", ("incl", f"{w}.build"))
        spec[f"{w}.build.self_s"] = ("s", ("self", f"{w}.build"))
        spec[f"{w}.log_eval_s"] = ("s", ("self", f"{w}.log_eval"))
    for method in CELL_METHODS:
        spec[f"estimators.cell.{method}_s"] = ("s", ("incl", f"estimators.cell.{method}"))
    spec["estimators.bs.iterations"] = ("count", ("count", "estimators.bs.iterations"))
    spec["estimators.se_batch_means_s"] = ("s", ("self", "estimators.se_batch_means"))
    spec["diagnostics.aggregate_s"] = ("s", ("self", "diagnostics.aggregate"))
    return spec


class Tracer:
    """Records spans and counts for the calls into each mddkit layer."""

    def __init__(self, mddkit):
        self.mddkit = mddkit
        self.spans = []          # [name, start, end, parent index]
        self.counts = defaultdict(int)
        self._stack = []
        self._undo = []

    # -- wrapping -------------------------------------------------------------

    def wrap(self, fn, name, after=None):
        """``fn`` recording one span per call; ``name`` is a string or a function
        of the call's arguments; ``after(args, result)`` records counts."""
        spans, stack = self.spans, self._stack
        name_of = name if callable(name) else (lambda args, kwargs: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name_of(args, kwargs), 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, fn, name, after=None, modules=None):
        """Replace ``fn`` in ``modules``, by default every mddkit module that binds it."""
        wrapped = self.wrap(fn, name, after)
        if modules is None:
            modules = [mod for mod_name, mod in list(sys.modules.items())
                       if mod_name == "mddkit" or mod_name.startswith("mddkit.")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapped)

    def patch_method(self, cls, attr, name, after=None):
        self._set(cls, attr, self.wrap(cls.__dict__[attr], name, after))

    # -- attach points ----------------------------------------------------------

    def install(self):
        mk = self.mddkit
        harness, est = mk.harness, mk.estimators
        counts = self.counts

        self.patch_function(harness.build_context, "harness.build_context")

        def emitted(args, paths):
            counts["harness.emit_outputs.bytes"] += sum(p.stat().st_size for p in paths)
        self.patch_function(harness.emit_outputs, "harness.emit_outputs", emitted)

        kernel_prefix = {}

        def prefix(cls):
            if cls not in kernel_prefix:
                mod = cls.__module__.rpartition(".")[2]
                kernel_prefix[cls] = f"{mod}.cdl" if "Cdl" in cls.__name__ else mod
            return kernel_prefix[cls]

        def kernel_rows(args, out):
            counts[f"{prefix(type(args[0]))}.log_kernel_batch.rows"] += len(out)
        base = mk.modelapi.ModelKernel
        kernel_classes = [base] + [
            cls for m in KERNEL_MODULES for cls in vars(getattr(mk, m)).values()
            if isinstance(cls, type) and issubclass(cls, base) and cls is not base
            and cls.__module__ == f"mddkit.{m}"]
        for cls in kernel_classes:
            if "log_kernel_batch" in cls.__dict__:
                self.patch_method(cls, "log_kernel_batch",
                                  lambda args, kw: f"{prefix(type(args[0]))}.log_kernel_batch",
                                  kernel_rows)
        for cls in kernel_classes[1:]:
            mod = cls.__module__.rpartition(".")[2]
            for meth in KERNEL_METHODS:
                if meth in cls.__dict__:
                    after = {"vb_fit": self._vb_counts(mod),
                             "posterior_sampler": self._mh_counts(mod)}.get(meth)
                    self.patch_method(cls, meth, f"{mod}.{meth}", after)

        for fn in ("ln_parabolic_cylinder_d", "quadrature_1d"):
            self.patch_function(getattr(mk.statscore, fn), f"statscore.{fn}")
        self.patch_method(mk.modelapi.ParamLayout, "unpack_batch", "modelapi.unpack_batch")

        for (mod, attr), tag in _BUILDERS.items():
            self.patch_function(getattr(getattr(mk, mod), attr),
                                f"estimators.weighting.{tag}.build", self._trace_log_eval)

        def cell_name(prefix_, pos, param):
            if pos is None:
                return f"estimators.cell.{prefix_}"
            return lambda args, kw: (
                f"estimators.cell.{prefix_}-{(args[pos] if len(args) > pos else kw[param]).tag}")

        def bs_iterations(args, out):
            counts["estimators.bs.iterations"] += out.iterations
        for fn, (prefix_, pos, param) in _CELLS.items():
            self.patch_function(getattr(est, fn), cell_name(prefix_, pos, param),
                                bs_iterations if fn == "bs_estimate" else None)
        self.patch_method(est.MddEstimate, "se_batch_means", "estimators.se_batch_means")

        # the class itself stays unwrapped inside diagnostics, which may test types
        for fn in ("RepetitionSet", "nse", "percent_in_bounds"):
            self.patch_function(getattr(mk.diagnostics, fn), "diagnostics.aggregate",
                                modules=[harness])
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _trace_log_eval(self, args, weighting):
        weighting.log_eval = self.wrap(
            weighting.log_eval, f"estimators.weighting.{weighting.tag}.log_eval")

    def _vb_counts(self, mod):
        def after(args, vb):
            self.counts[f"{mod}.vb_fit.iterations"] += len(vb.elbo_trace)
            self.counts[f"{mod}.vb_fit.converged"] += int(bool(vb.converged))
        return after

    def _mh_counts(self, mod):
        blocks = [b for m, b in MH_BLOCKS if m == mod]

        def after(args, draws):
            start = 0
            for block in draws.layout.blocks:
                if block.name in blocks:
                    cols = draws.thetas[:, start:start + block.size]
                    moved = np.any(np.diff(cols, axis=0) != 0, axis=1)
                    self.counts[f"{mod}.mh_moved.{block.name}"] += int(moved.sum())
                    self.counts[f"{mod}.mh_steps.{block.name}"] += moved.size
                start += block.size
        return after

    # -- summaries ------------------------------------------------------------

    def by_name(self) -> dict:
        """Span name -> {"calls", "incl", "self"} over every recorded span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "incl": 0.0, "self": 0.0})
        for (name, start, end, _), covered in zip(self.spans, child):
            agg = out[name]
            agg["calls"] += 1
            agg["incl"] += end - start
            agg["self"] += end - start - covered
        return dict(out)

    def metrics(self) -> dict:
        """Every per-layer metric of ``per_layer_spec``; absent layers read 0."""
        names = self.by_name()
        out = {}
        for metric, (unit, (kind, *keys)) in per_layer_spec().items():
            if kind in ("incl", "self", "calls"):
                value = names.get(keys[0], {}).get(kind, 0)
            elif kind == "count":
                value = self.counts.get(keys[0], 0)
            else:
                den = (names.get(keys[1], {}).get("calls", 0) if kind == "per_call"
                       else self.counts.get(keys[1], 0))
                value = self.counts.get(keys[0], 0) / den if den else 0.0
            out[metric] = value
        return out

    def dump(self, path):
        """Write the spans as CSV: span id, parent id (-1 at the top), name, start, end,
        in seconds from the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("span,parent,name,start_s,end_s\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start - t0:.7f},{end - t0:.7f}\n")
