"""Per-layer trace of one worker pass, recorded from outside the program.

`Tracer.install` wraps the functions named in `layers()` and rebinds the
wrapper in every `braidpow` module namespace that holds the function
object: `from .laurent import lmul` copies the binding into qarith,
braided, uqmod and others, so patching `laurent.lmul` alone would miss
most calls.  `Tracer.uninstall` restores every original binding.

Per layer it records `calls`, `busy_s` (inclusive time of the outermost
activation, so nesting inside one layer is not counted twice) and
`self_s` (time not spent in wrapped child calls).  The sp_echelon and
sp_intersect probes also count rows, pivots, q-spans and coefficient
bits; the probe time is charged to no layer's self time.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter


def layers(stage_names) -> dict:
    """Layer name -> targets ("module.function" or "module.Class.method")
    whose calls make up the layer."""
    table = {
        "laurent.lmul": ["laurent.lmul"],
        "laurent.lgcd": ["laurent.lgcd"],
        "laurent.ldiv_exact": ["laurent.ldiv_exact"],
        "qarith.srow_strip": ["qarith.srow_strip"],
        "qarith.sp_echelon": ["qarith.sp_echelon"],
        "qarith.sp_kernel": ["qarith.sp_kernel"],
        "qarith.sp_intersect": ["qarith.sp_intersect"],
        # the dense round trip through Subspace
        "qarith.subspace": [
            "qarith.Subspace.from_sparse",
            "qarith.Subspace.span",
            "qarith.Subspace.sparse_rows",
        ],
        "braided.power_step": ["braided._power_step"],
        # every braided square built; module_square only delegates here
        "braided.module_square": [
            "braided._square_of_simple",
            "braided._square_of_standard",
            "braided.square_matrix_module",
        ],
        "braided.decompose_power": ["braided.decompose_power"],
        "braided.triple_product": ["braided.triple_product"],
        "uqmod.tensor": ["uqmod.tensor"],
        "uqmod.specialize_module": ["uqmod.specialize_module"],
        "uqmod.highest_weight_vectors": ["uqmod.highest_weight_vectors"],
        "uqmod.decompose_weight_rows": ["uqmod.decompose_weight_rows"],
        "gl3canon.genericity_check": ["gl3canon.genericity_check"],
        "gl3canon.degree_recursion_check": ["gl3canon.degree_recursion_check"],
        "convexopt.certify_max": ["convexopt.certify_max"],
        "classical.poisson_closure_dims": ["classical.poisson_closure_dims"],
        "qmat.check_qmatrix_relations": ["qmat.check_qmatrix_relations"],
        "cli.run": ["cli.run"],
    }
    for name in stage_names:
        table[f"acceptance.{name}"] = [f"acceptance.{name}"]
    return table


class _Layer:
    __slots__ = ("calls", "busy", "self_time", "depth")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.depth = 0


class Tracer:
    def __init__(self, stage_names):
        self.targets = layers(stage_names)
        self.layers = {name: _Layer() for name in self.targets}
        # one entry per active wrapped call: time spent in its wrapped children
        self._stack: list[list[float]] = []
        self._patches: list[tuple] = []
        self.rows_fed = 0
        self.pivots = 0
        self.rows_in = 0
        self.rows_out = 0
        self.max_qspan = 0
        self.max_coeff_bits = 0

    # -- row counters ---------------------------------------------------

    def _echelon_args(self, args, kwargs):
        rows = args[0]
        if not isinstance(rows, (list, tuple)):
            rows = list(rows)
        self.rows_fed += len(rows)
        return (rows,) + args[1:], kwargs

    def _echelon_result(self, args, result):
        self.pivots += len(result)

    def _intersect_result(self, args, result):
        self.rows_in += len(args[0]) + len(args[1])
        self.rows_out += len(result)
        for row in result:
            for poly in row.values():
                self.max_qspan = max(self.max_qspan, max(poly) - min(poly))
                for c in poly.values():
                    bits = max(c.numerator.bit_length(), c.denominator.bit_length())
                    self.max_coeff_bits = max(self.max_coeff_bits, bits)

    # -- wrapping -------------------------------------------------------

    def _wrap(self, layer_name, fn, before=None, after=None):
        layer = self.layers[layer_name]
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            children = [0.0]
            stack.append(children)
            layer.depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                layer.depth -= 1
                layer.calls += 1
                layer.self_time += elapsed - children[0]
                if not layer.depth:
                    layer.busy += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                t1 = perf_counter()
                after(args, result)
                if stack:
                    stack[-1][0] += perf_counter() - t1
            return result

        return traced

    def install(self) -> None:
        """Wrap every target and rebind it wherever the program holds it."""
        modules = [
            m
            for name, m in sys.modules.items()
            if name == "braidpow" or name.startswith("braidpow.")
        ]
        hooks = {
            "qarith.sp_echelon": (self._echelon_args, self._echelon_result),
            "qarith.sp_intersect": (None, self._intersect_result),
        }
        for layer_name, targets in self.targets.items():
            before, after = hooks.get(layer_name, (None, None))
            for target in targets:
                module_name, *path = target.split(".")
                home = sys.modules[f"braidpow.{module_name}"]
                if len(path) == 2:
                    cls = getattr(home, path[0])
                    raw = cls.__dict__[path[1]]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(layer_name, raw.__func__, before, after))
                    else:
                        new = self._wrap(layer_name, raw, before, after)
                    self._bind(cls, path[1], raw, new)
                    continue
                fn = getattr(home, path[0])
                new = self._wrap(layer_name, fn, before, after)
                for m in modules:
                    for attr in [a for a, v in vars(m).items() if v is fn]:
                        self._bind(m, attr, fn, new)

    def _bind(self, owner, attr, old, new) -> None:
        self._patches.append((owner, attr, old))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        """Restore every binding `install` replaced."""
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def exclude(self, seconds: float) -> None:
        """Keep time the worker spent on its own work out of the active
        layer's self time."""
        if self._stack:
            self._stack[-1][0] += seconds

    def metrics(self) -> dict:
        out = {}
        for name, layer in self.layers.items():
            out[f"{name}.calls"] = layer.calls
            out[f"{name}.busy_s"] = layer.busy
            out[f"{name}.self_s"] = layer.self_time
        out["qarith.sp_echelon.pivot_ratio"] = (
            self.pivots / self.rows_fed if self.rows_fed else 0.0
        )
        out["qarith.sp_intersect.rows_in"] = self.rows_in
        out["qarith.sp_intersect.rows_out"] = self.rows_out
        out["qarith.max_qspan"] = self.max_qspan
        out["qarith.max_coeff_bits"] = self.max_coeff_bits
        return out


# Metrics that must repeat exactly between two traced passes with one seed.
_COUNT_SUFFIXES = (".calls", ".rows_in", ".rows_out", ".pivot_ratio")
_COUNT_NAMES = ("qarith.max_qspan", "qarith.max_coeff_bits")


def is_count(name: str) -> bool:
    return name.endswith(_COUNT_SUFFIXES) or name in _COUNT_NAMES
