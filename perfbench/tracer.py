"""Outside-in tracer: spans around the public functions of each lipfree layer.

Every call of a wrapped function records one span: its name, start, end and
the index of the span that was open when it began.  The layer functions are
imported across the package with ``from .x import y``, so one function is
bound in several modules (``validate_metric`` lives in ``spaces``,
``freenorm``, ``extension``, ``gluing`` and the package root) and in default
arguments (``refiner=brick_cover``).  ``install`` replaces every one of these
bindings in every loaded ``lipfree`` module and checks that none is left;
``uninstall`` puts the originals back and checks the same way.

The tracer changes no code under ``src/`` and no value a wrapped function
returns, so a traced run writes the same report bytes as an untraced one.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import math
import sys
import time

LAYERS = ("spaces", "lp", "freenorm", "covers", "extension", "gluing", "certs", "cli")

# Spans of these names get their own count of the LPs solved beneath them, and
# of how many of those were distinct.
LP_CONTEXTS = ("extension.build_extension_bundle", "extension.build_perturbed_operator",
               "gluing.build_gluing_bundle", "gluing.certify_gluing")

NAME, START, END, PARENT, INFO, OBSERVE_S = range(6)


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _observe_validate(info, args, kwargs, result):
    n = len(_arg(args, kwargs, 0, "mat"))
    info["n3"] = n ** 3


def _observe_solve(info, args, kwargs, result):
    lp = _arg(args, kwargs, 0, "lp")
    key = hashlib.sha1()
    for part in (lp.objective, lp.rows, lp.rhs):
        key.update(repr(part.shape).encode())
        key.update(part.tobytes())
    info["key"] = key.digest()
    info["iterations"] = result.iterations
    info["violation"] = result.max_violation


def _observe_sparse(info, args, kwargs, result):
    info["rows"] = _arg(args, kwargs, 1, "a_ub").shape[0]
    info["iterations"] = result.iterations
    info["violation"] = result.max_violation


def _observe_molecules(info, args, kwargs, result):
    pairs = _arg(args, kwargs, 2, "pairs")
    n = _arg(args, kwargs, 0, "op").space.n
    info["pairs"] = n * (n - 1) // 2 if pairs is None else len(pairs)


def _observe_certificate(info, args, kwargs, result):
    if result.comparator in ("le", "lt") and result.claimed != 0.0:
        headroom = (result.claimed - result.measured) / result.claimed
        if math.isfinite(headroom):
            info["headroom"] = headroom


OBSERVERS = {
    "spaces.validate_metric": _observe_validate,
    "lp.solve": _observe_solve,
    "lp.solve_min_sparse": _observe_sparse,
    "freenorm.molecule_norm_matrix": _observe_molecules,
    "certs.make_certificate": _observe_certificate,
}


def _lipfree_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "lipfree" or name.startswith("lipfree."))]


def _functions_of(module):
    """Functions defined in a lipfree module, including class methods."""
    for obj in vars(module).values():
        if inspect.isclass(obj) and obj.__module__ == module.__name__:
            for member in vars(obj).values():
                if inspect.isfunction(member):
                    yield member
        elif inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield obj


class Tracer:
    """Collects spans while installed; ``summary`` turns them into metrics."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._functions: list = []
        self._wrappers: dict = {}

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None, 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if observe is not None:
                span[INFO] = {}
                observe(span[INFO], args, kwargs, result)
                span[OBSERVE_S] = clock() - span[END]
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"lipfree.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    originals[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))

        def swap(obj):
            hit = originals.get(id(obj))
            return hit[1] if hit is not None and hit[0] is obj else None

        # listed before any module attribute is swapped for a wrapper
        self._functions = [fn for module in _lipfree_modules()
                           for fn in _functions_of(module)]
        for module in _lipfree_modules():
            for attr, obj in list(vars(module).items()):
                wrapper = swap(obj)
                if wrapper is not None:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        for fn in self._functions:
            if fn.__defaults__ and any(swap(v) for v in fn.__defaults__):
                self._patches.append((fn, "__defaults__", fn.__defaults__))
                fn.__defaults__ = tuple(swap(v) or v for v in fn.__defaults__)
        self._wrappers = {id(w): w for _, w in originals.values()}
        leftover = self._bindings_of({id(o): o for o, _ in originals.values()})
        if leftover:
            self.uninstall()
            raise RuntimeError(f"unwrapped layer functions remain: {leftover}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        leftover = self._bindings_of(self._wrappers)
        if leftover:
            raise RuntimeError(f"tracer wrappers remain after uninstall: {leftover}")

    def _bindings_of(self, targets: dict) -> list[str]:
        """Every module attribute or default argument bound to one of targets."""
        def bound(obj):
            return id(obj) in targets and targets[id(obj)] is obj

        found = []
        for module in _lipfree_modules():
            for attr, obj in vars(module).items():
                if bound(obj):
                    found.append(f"{module.__name__}.{attr}")
        for fn in self._functions:
            for v in fn.__defaults__ or ():
                if bound(v):
                    found.append(f"{fn.__module__}.{fn.__qualname__} default")
        return found

    # -- aggregation ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-function and per-layer totals from the recorded spans.

        ``s`` is inclusive time over the outermost span of each name (a call
        nested inside a call of the same name is not counted twice);
        ``self_s`` is a span's duration minus that of its direct children and
        of the tracer's own bookkeeping after them.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START] + span[OBSERVE_S]

        funcs: dict[str, dict] = {}
        layers = {layer: 0.0 for layer in LAYERS}
        contexts = {name: {"calls": 0, "keys": set()} for name in LP_CONTEXTS}
        for i, span in enumerate(spans):
            name = span[NAME]
            f = funcs.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "lp_calls": 0})
            f["calls"] += 1
            own = span[END] - span[START] - child_time[i]
            f["self_s"] += own
            layers[name.split(".", 1)[0]] += own
            ancestors = self._ancestor_names(i)
            if name not in ancestors:
                f["s"] += span[END] - span[START]
            if name == "lp.solve" and span[INFO]:
                for a in ancestors:
                    if a in funcs:
                        funcs[a]["lp_calls"] += 1
                    if a in contexts:
                        contexts[a]["calls"] += 1
                        contexts[a]["keys"].add(span[INFO]["key"])
            if span[INFO]:
                for k, v in span[INFO].items():
                    if k == "key":
                        f.setdefault("keys", set()).add(v)
                    elif k in ("violation", "headroom"):
                        f.setdefault(k, []).append(v)
                    else:
                        f[k] = f.get(k, 0) + v
        return {"functions": funcs, "layer_self_s": layers, "lp_contexts": contexts}

    def _ancestor_names(self, i: int) -> set:
        names = set()
        parent = self.spans[i][PARENT]
        while parent >= 0:
            names.add(self.spans[parent][NAME])
            parent = self.spans[parent][PARENT]
        return names


# Per-function metrics the traced run reports, by span name.
FUNCTION_METRICS = {
    "spaces.validate_metric": ("calls", "s", "n3"),
    "spaces.perturb_metric": ("calls", "s"),
    "lp.solve": ("calls", "s", "iterations"),
    "lp.solve_min_sparse": ("calls", "s", "iterations", "rows"),
    "freenorm.molecule_norm_matrix": ("calls", "s", "self_s", "pairs"),
    "freenorm.operator_norm": ("calls", "s"),
    "freenorm.metric_extension_lp": ("calls", "s", "self_s"),
    "freenorm.lipschitz_constant": ("calls", "s"),
    "covers.build_net_cover": ("s",),
    "covers.verify_net_cover": ("calls", "s"),
    "extension.build_extension_bundle": ("s", "self_s"),
    "extension.build_perturbed_operator": ("calls", "s", "self_s"),
    "gluing.build_gluing_bundle": ("s", "self_s"),
    "gluing.certify_gluing": ("calls", "s", "self_s"),
    "certs.make_certificate": ("calls",),
}


def layer_metrics(summary: dict) -> dict:
    """Flat name -> value map of every per-layer metric the tracer measures."""
    funcs = summary["functions"]
    out = {}
    for name, keys in FUNCTION_METRICS.items():
        for key in keys:
            out[f"{name}.{key}"] = funcs.get(name, {}).get(key, 0)
    for layer, seconds in summary["layer_self_s"].items():
        out[f"{layer}.self_s"] = seconds

    solve = funcs.get("lp.solve", {})
    distinct = len(solve.get("keys", ()))
    out["lp.solve.distinct"] = distinct
    out["lp.solve.distinct_ratio"] = distinct / solve["calls"] if solve else 0.0
    for name in ("lp.solve", "lp.solve_min_sparse"):
        finite = [v for v in funcs.get(name, {}).get("violation", ()) if math.isfinite(v)]
        out[f"{name}.max_violation"] = max(finite, default=0.0)

    molecules = funcs.get("freenorm.molecule_norm_matrix", {})
    pairs = molecules.get("pairs", 0)
    out["freenorm.molecule_norm_matrix.lp_share"] = (
        molecules.get("lp_calls", 0) / pairs if pairs else 0.0)

    for name, ctx in summary["lp_contexts"].items():
        out[f"{name}.lp_calls"] = ctx["calls"]
        out[f"{name}.lp_distinct"] = len(ctx["keys"])

    headroom = funcs.get("certs.make_certificate", {}).get("headroom", ())
    out["certs.min_headroom"] = min(headroom, default=0.0)
    return out
