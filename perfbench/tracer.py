"""Layer tracer applied from outside the package.

The package binds names with ``from .x import y``, so one function object
can be reachable under several module attributes (``contour.quad_nodes``,
``projections.quad_nodes``, ``symbol1d.quad_nodes``).  ``install`` replaces
every module-level binding of each wrapped function, in every loaded
``sectoral`` module and in the benchmark's own modules, and then refuses to
run if any binding of an original is left anywhere it looks: a call that
could bypass the wrapper would make the layer counts silently low.

Each wrapped call records a span ``(id, parent id, name, start, end,
section, task, attribute)`` in memory; the worker writes ``spans`` out when
the run ends.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import sys
import time

import numpy as np

# The public functions wrapped per layer (module of sectoral -> names).
SPAN_TARGETS = {
    "linalg": ("solve", "eig", "operator_norm_2", "inv_sqrt_hpd"),
    "contour": ("quad_nodes", "validate_contour"),
    "projections": ("sectorial_projection", "eigen_projection_oracle",
                    "complex_power", "wodzicki_residual", "aps_projection",
                    "riesz_transform"),
    "symbol1d": ("op_from_symbol", "sobolev_op_norm",
                 "cutoff_resolvent_symbol", "parametrix_phi0", "choose_rho"),
    "experiments": ("resolvent_decay_experiment", "parametrix_gap_experiment",
                    "composition_gap_experiment", "perturbation_experiment",
                    "boundedness_check", "aggregate_seminorm"),
    "topology": ("component_index", "spectral_flow", "chern_number",
                 "chern_rounding_residual", "bundle_from_map",
                 "obstruction_demo"),
    "presets": ("get_operator",),
    "cli": ("main",),
}
# Wrapped for a call count only: called once per quadrature node.
COUNT_TARGETS = {"linalg": ("as_matrix",)}


def _solve_shape(args, kwargs):
    """(n, right-hand sides) of linalg.solve(A, B)."""
    a = args[0] if args else kwargs["A"]
    b = args[1] if len(args) > 1 else kwargs["B"]
    shape = np.shape(b)
    return [int(np.shape(a)[0]), int(shape[1]) if len(shape) > 1 else 1]


def _matrix_digest(args, kwargs):
    """Content digest of the matrix passed to linalg.eig."""
    m = np.ascontiguousarray(args[0] if args else kwargs["A"], dtype=complex)
    return hashlib.blake2b(m.tobytes() + repr(m.shape).encode(),
                           digest_size=12).hexdigest()


def _spec_key(args, kwargs):
    return repr(args[0] if args else kwargs["c"])


# Span attribute recorded for the derived layer metrics.
ATTRIBUTES = {"linalg.solve": _solve_shape, "linalg.eig": _matrix_digest,
              "contour.quad_nodes": _spec_key}


class Tracer:
    """Records spans of the wrapped functions while ``active``."""

    def __init__(self, extra_modules=()):
        self.extra_modules = tuple(extra_modules)
        self.spans = []
        self.counts = {}
        self.active = False
        self.task = None
        self.label = None
        self._stack = []
        self._restore = []

    # -- patching ----------------------------------------------------------

    def _modules(self):
        own = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "sectoral"
                                     or name.startswith("sectoral."))]
        return own + list(self.extra_modules)

    def install(self):
        originals = {}
        for table, make in ((SPAN_TARGETS, self._span_wrapper),
                            (COUNT_TARGETS, self._count_wrapper)):
            for mod_name, names in table.items():
                mod = importlib.import_module(f"sectoral.{mod_name}")
                for fname in names:
                    label = f"{mod_name}.{fname}"
                    fn = getattr(mod, fname)
                    originals[id(fn)] = (fn, make(label, fn), label)
        modules = self._modules()
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        self._check_no_original(modules, originals)
        for _, _, label in originals.values():
            self.counts.setdefault(label, 0)

    @staticmethod
    def _check_no_original(modules, originals):
        """Fail if an original is still reachable from a module attribute or
        from a container held in one (registries, handler tables)."""
        def reachable(value):
            yield value
            if isinstance(value, dict):
                value = list(value.values())
            if isinstance(value, (list, tuple)):
                for item in value:
                    yield from reachable(item)

        for mod in modules:
            for attr, value in vars(mod).items():
                if attr.startswith("__"):
                    continue
                for item in reachable(value):
                    hit = originals.get(id(item))
                    if hit is not None and hit[0] is item:
                        raise RuntimeError(
                            f"unwrapped binding of {hit[2]} left at "
                            f"{mod.__name__}.{attr}")

    def uninstall(self):
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _span_wrapper(self, label, fn):
        attribute = ATTRIBUTES.get(label)
        spans, stack, perf = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.counts[label] += 1
            attr = attribute(args, kwargs) if attribute else None
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans[sid] = (sid, parent, label, t0, t1, self.label,
                              self.task, attr)
        return wrapper

    def _count_wrapper(self, label, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[label] += 1
            return fn(*args, **kwargs)
        return wrapper

    def start(self, label):
        """Begin recording a labelled section (a pass or the probe)."""
        self.label = label
        self.counts = {k: 0 for k in self.counts}
        self.active = True

    def stop(self):
        """End the section; return its call counts per wrapped function."""
        self.active = False
        return dict(self.counts)
