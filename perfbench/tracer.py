"""Outside-in spans and work counters around the public functions of l1torus.

The library is not instrumented itself: :class:`Tracer` replaces each listed
function by a wrapper that records a span (name, parent span, duration) and,
for some functions, adds work counts computed from the call's arguments.
``from .x import f`` copies the reference into the importing module, so the
wrapper is bound to every ``l1torus`` module attribute that holds the
original function, and :meth:`Tracer.uninstall` puts every one back.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

# module -> public functions wrapped in spans ("Class.method" for classmethods)
TRACED = {
    "numerics": ["shell_enumerate", "ball_enumerate", "gauss_legendre",
                 "gauss_gegenbauer", "torus_trapezoid"],
    "polys": ["gegenbauer_sequence", "gegenbauer_at_one"],
    "divdiff": ["divided_difference"],
    "bspline": ["bspline_eval", "knot_field_batch"],
    "kernels": ["shell_sum", "shell_sum_batch", "dirichlet_kernel", "biortho_poly"],
    "bspline_fourier": ["mean_series", "mean_torus_mc", "mean_recursion_sides",
                        "biorthogonality_matrix"],
    "summability": ["synth", "SampledTorusFn.sample", "partial_sum"],
    "pdf": ["gram_matrix", "spdf_check", "min_eigenvalue"],
    "verify": ["field_integrals"],
    "cli": ["main"],
}

# Deterministic suites of the identity-suites workload: every suite except
# mean-mc, whose jobs belong to the mc-means workload.
SUITES = ["shell-count", "shell-divdiff", "shell-integral", "dirichlet-divdiff",
          "biortho-generating", "poisson-bspline", "poisson-divdiff",
          "poisson-series", "biortho", "mean-recursion", "mean-methods",
          "gram-psd", "spdf-cross"]

COUNTERS = ["numerics.lattice_points", "polys.gegenbauer_terms",
            "bspline.field_evals", "divdiff.knots", "pdf.gram_entries",
            "bspline_fourier.mc_pairs", "cli.output_bytes"]


def span_names() -> list[str]:
    """Every span the traced run reports, functions first, then suites."""
    names = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
    return names + [f"verify.{s}" for s in SUITES]


def _shell_count(d, n):
    from l1torus.numerics import shell_count
    return shell_count(int(d), int(n))


def _ball_count(d, n):
    return sum(_shell_count(d, k) for k in range(int(n) + 1))


def _mc_pairs(a):
    budget = a["budget"]
    if budget is None:
        from l1torus.bspline_fourier import _MC_DEFAULT_BUDGET
        budget = _MC_DEFAULT_BUDGET[a["d"]]
    return max(budget // 2, 1)


def _out_bytes(a) -> int:
    argv = list(a["argv"] or ())
    if "--out" in argv[:-1]:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            return os.path.getsize(path)
    return 0


def _count_mc(a):
    pairs = _mc_pairs(a)
    return {"bspline_fourier.mc_pairs": pairs,
            "numerics.lattice_points": _shell_count(a["d"], a["n"]) * pairs}


def _count_partial_sum(a):
    f = a["f"]
    return {"numerics.lattice_points":
            _ball_count(f.d, a["n"]) * f.rule.nodes.shape[0]}


# span name -> work counts derived from the bound call arguments
_COUNT_FNS = {
    "kernels.shell_sum": lambda a: {
        "numerics.lattice_points": _shell_count(a["d"], a["n"])},
    "kernels.shell_sum_batch": lambda a: {
        "numerics.lattice_points": _shell_count(a["d"], a["n"]) * len(a["thetas"])},
    "kernels.dirichlet_kernel": lambda a: {
        "numerics.lattice_points": _ball_count(a["d"], a["n"])},
    "bspline_fourier.mean_torus_mc": _count_mc,
    "summability.partial_sum": _count_partial_sum,
    "polys.gegenbauer_sequence": lambda a: {
        "polys.gegenbauer_terms": (int(a["nmax"]) + 1) * int(np.size(a["t"]))},
    "bspline.bspline_eval": lambda a: {"bspline.field_evals": 1},
    "bspline.knot_field_batch": lambda a: {"bspline.field_evals": len(a["cos_knots"])},
    "divdiff.divided_difference": lambda a: {"divdiff.knots": len(a["knots"])},
    "pdf.gram_matrix": lambda a: {
        "pdf.gram_entries": a["spec"].points.shape[0] * (a["spec"].points.shape[0] + 1) // 2},
}

# counts that need the call to have finished (the file it wrote)
_AFTER_COUNT_FNS = {"cli.main": lambda a: {"cli.output_bytes": _out_bytes(a)}}


class Tracer:
    """Spans kept in memory as [name, parent index, duration]; counts by name."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter({name: 0 for name in COUNTERS})
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, parent, 0.0]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        start = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter() - start
            self._stack.pop()

    def _wrap(self, name: str, fn):
        before = _COUNT_FNS.get(name)
        after = _AFTER_COUNT_FNS.get(name)
        sig = inspect.signature(fn) if (before or after) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if sig is not None:
                b = sig.bind(*args, **kwargs)
                b.apply_defaults()
                bound = b.arguments
                if before:
                    self.counts.update(before(bound))
            with self.span(name):
                result = fn(*args, **kwargs)
            if after:
                self.counts.update(after(bound))
            return result

        return wrapper

    def install(self):
        """Wrap every function in TRACED wherever an l1torus module binds it."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "l1torus" or k.startswith("l1torus."))]
        for mod_name, fns in TRACED.items():
            mod = importlib.import_module(f"l1torus.{mod_name}")
            for qual in fns:
                name = f"{mod_name}.{qual}"
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    setattr(cls, meth, classmethod(self._wrap(name, raw.__func__)))
                    self._restore.append((cls, meth, raw))
                    continue
                orig = getattr(mod, qual)
                wrapper = self._wrap(name, orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
                            self._restore.append((m, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def summary(self) -> dict:
        """calls, total_s and self_s per span name, plus the work counts.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        child = [0.0] * len(self.spans)
        for name, parent, dur in self.spans:
            if parent >= 0:
                child[parent] += dur
        stats = {name: [0, 0.0, 0.0] for name in span_names()}
        for (name, _, dur), kids in zip(self.spans, child):
            st = stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += 1
            st[1] += dur
            st[2] += dur - kids
        return {"spans": stats, "counts": dict(self.counts)}
