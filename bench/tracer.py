"""Per-layer counts and times for the traced run.

``Tracer.install()`` wraps the public functions of ``cli``, ``golden``,
``rel``, ``nonrel``, ``specfun`` and ``oracle``, plus ``eigh_tridiagonal``
as ``oracle`` binds it, at every binding site in the package: a function
imported by name into another module (``laguerre`` in ``nonrel``, ``rel``
and ``validate``) is replaced there too, so no call escapes. ``restore()``
puts the originals back.

Each wrapped call is timed. Its duration counts towards its layer's total,
and towards its caller's child time, so self time is the total minus the
part covered by wrapped callees. Calls of the coarse layers (each
operation, ``cli``, ``golden``, ``oracle`` and the relativistic level
solves) are kept as spans (id, name, start, end, parent, op); the hot
scalar layers (special functions, residuals, per-point wavefunction and
spinor samples) run millions of times per pass and are kept as counters.

Layers are named by pattern, not by the exact function, so they survive a
rename inside a module: in ``rel``, ``solve_*`` and ``klein_gordon_energy``
are ``rel.solve``, ``*_residual`` is ``rel.residual`` and ``*_spinor`` is
``rel.spinor``; ``golden.compute_table*`` is ``golden.compute_table``.
"""
from __future__ import annotations

import sys
import time
from dataclasses import dataclass

import numpy as np

TRACED_MODULES = ("cli", "golden", "rel", "nonrel", "specfun", "oracle")

# layer -> index of the argument holding the sample points
POINTS_ARG = {
    "specfun.laguerre": 2,
    "specfun.laguerre_derivative": 2,
    "specfun.hermite": 1,
    "nonrel.wavefunction": 2,
    "nonrel.harmonic_wavefunction": 2,
    "nonrel.oscillator3d_radial": 3,
    "rel.spinor": 3,
    "oracle.eigensolve": 0,  # the diagonal: one row per interior grid point
}
# layer -> the layer whose calls are counted inside it
NESTED = {"rel.solve": "rel.residual", "oracle.dirac_selfconsistent": "oracle.eigensolve"}
SPAN_LAYERS = ("cli.", "golden.", "oracle.", "rel.solve")


def layer_name(module: str, func: str) -> str:
    if module == "rel":
        if func.startswith("solve_") or func == "klein_gordon_energy":
            return "rel.solve"
        if func.endswith("_residual"):
            return "rel.residual"
        if func.endswith("_spinor"):
            return "rel.spinor"
    if module == "golden" and func.startswith("compute_table"):
        return "golden.compute_table"
    return f"{module}.{func}"


@dataclass
class LayerStats:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    points: int = 0
    scalar_calls: int = 0
    array_calls: int = 0
    nested: int = 0  # calls of NESTED[layer] made inside this layer
    evals: int = 0  # evaluations of a callable argument (integrand, root function)


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, LayerStats] = {}
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # frames: [child seconds, span id]
        self._patched: list[tuple] = []
        self._op: int | None = None

    def stat(self, layer: str) -> LayerStats:
        return self.stats.setdefault(layer, LayerStats())

    # ---------------------------------------------------------- wrapping

    def _wrapper(self, layer: str, fn):
        stat = self.stat(layer)
        stack = self._stack
        spans = self.spans
        keep_span = layer.startswith(SPAN_LAYERS)
        points_at = POINTS_ARG.get(layer)
        inner = self.stat(NESTED[layer]) if layer in NESTED else None
        counted_arg = layer in ("oracle.quadrature", "oracle.scan_roots")
        clock = time.perf_counter

        def counting(f):
            def counted(x):
                stat.evals += 1
                return f(x)

            return counted

        def wrapper(*args, **kwargs):
            if points_at is not None and len(args) > points_at:
                arg = args[points_at]
                if np.ndim(arg) == 0:
                    stat.scalar_calls += 1
                    stat.points += 1
                else:
                    stat.array_calls += 1
                    stat.points += int(np.size(arg))
            if counted_arg:
                args = (counting(args[0]),) + args[1:]
            parent = stack[-1][1] if stack else None
            span_id = len(spans) if keep_span else parent
            if keep_span:
                spans.append(None)  # reserve the id; filled on exit
            frame = [0.0, span_id]
            stack.append(frame)
            inner_before = inner.calls if inner is not None else 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stat.calls += 1
                stat.seconds += elapsed
                stat.self_seconds += elapsed - frame[0]
                if inner is not None:
                    stat.nested += inner.calls - inner_before
                if stack:
                    stack[-1][0] += elapsed
                if keep_span:
                    spans[span_id] = (span_id, layer, start, end, parent, self._op)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    def install(self) -> None:
        """Wrap every public function of the traced modules at all its binding sites."""
        pkg = sys.modules["isospectra"]
        modules = [m for name, m in list(sys.modules.items()) if m is not None and (name == "isospectra" or name.startswith("isospectra."))]
        targets: dict[int, tuple] = {}
        for short in TRACED_MODULES:
            mod = getattr(pkg, short)
            for func in getattr(mod, "__all__", ()):
                obj = getattr(mod, func)
                if callable(obj) and getattr(obj, "__module__", None) == mod.__name__ and not isinstance(obj, type):
                    targets[id(obj)] = (obj, layer_name(short, func))
        eigh = pkg.oracle.eigh_tridiagonal
        targets[id(eigh)] = (eigh, "oracle.eigensolve")
        wrappers = {key: self._wrapper(layer, obj) for key, (obj, layer) in targets.items()}
        for mod in modules:
            for name, value in list(vars(mod).items()):
                key = id(value)
                if key in targets and targets[key][0] is value:
                    if value is eigh and mod is not pkg.oracle:
                        continue
                    self._patched.append((mod, name, value))
                    setattr(mod, name, wrappers[key])

    def restore(self) -> None:
        for mod, name, value in reversed(self._patched):
            setattr(mod, name, value)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # ------------------------------------------------------- operations

    def begin_op(self, op_index: int) -> None:
        """Open the root span of one operation; every span inside it carries its index."""
        self._op = op_index
        self.spans.append(None)
        self._stack.append([0.0, len(self.spans) - 1, time.perf_counter()])

    def end_op(self) -> None:
        end = time.perf_counter()
        _, span_id, start = self._stack.pop()
        self.spans[span_id] = (span_id, "op", start, end, None, self._op)
        self._op = None

    # ----------------------------------------------------------- metrics

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        s = self.stat
        out: dict[str, tuple[float, str]] = {}

        def put(name, value, unit):
            out[name] = (value, unit)

        for layer in ("cli.run_manifest", "rel.solve", "oracle.quadrature"):
            put(f"{layer}.calls", s(layer).calls, "count")
            put(f"{layer}.s", s(layer).seconds, "s")
            put(f"{layer}.self_s", s(layer).self_seconds, "s")
        put("golden.compute_table.calls", s("golden.compute_table").calls, "count")
        put("golden.compute_table.s", s("golden.compute_table").seconds, "s")
        put("rel.residual.evals", s("rel.residual").calls, "count")
        put("rel.residual.evals_per_solve", _ratio(s("rel.solve").nested, s("rel.solve").calls), "evals/solve")
        for layer in ("rel.spinor", "nonrel.wavefunction"):
            put(f"{layer}.calls", s(layer).calls, "count")
            put(f"{layer}.points", s(layer).points, "count")
            put(f"{layer}.s", s(layer).seconds, "s")
        put("nonrel.harmonic_wavefunction.points", s("nonrel.harmonic_wavefunction").points, "count")
        lag = s("specfun.laguerre")
        put("specfun.laguerre.scalar_calls", lag.scalar_calls, "count")
        put("specfun.laguerre.array_calls", lag.array_calls, "count")
        put("specfun.laguerre.points", lag.points, "count")
        put("specfun.laguerre.s", lag.seconds, "s")
        put("specfun.hermite.calls", s("specfun.hermite").calls, "count")
        put("specfun.hermite.points", s("specfun.hermite").points, "count")
        quad = s("oracle.quadrature")
        put("oracle.quadrature.integrand_evals", quad.evals, "count")
        put("oracle.quadrature.evals_per_integral", _ratio(quad.evals, quad.calls), "evals/integral")
        for layer in ("oracle.fd_eigenvalues", "oracle.dirac_selfconsistent", "oracle.ode_residual"):
            put(f"{layer}.calls", s(layer).calls, "count")
            put(f"{layer}.s", s(layer).seconds, "s")
        dirac = s("oracle.dirac_selfconsistent")
        put("oracle.dirac_selfconsistent.eigensolves_per_level", _ratio(dirac.nested, dirac.calls), "solves/level")
        eig = s("oracle.eigensolve")
        put("oracle.eigensolve.calls", eig.calls, "count")
        put("oracle.eigensolve.rows", eig.points, "count")
        put("oracle.eigensolve.s", eig.seconds, "s")
        scan = s("oracle.scan_roots")
        put("oracle.scan_roots.calls", scan.calls, "count")
        put("oracle.scan_roots.evals", scan.evals, "count")
        put("oracle.scan_roots.s", scan.seconds, "s")
        return out

    def counts(self) -> dict[str, int]:
        """Every integer count of every layer, for comparing two traced runs."""
        out = {}
        for layer, st in sorted(self.stats.items()):
            for field in ("calls", "points", "scalar_calls", "array_calls", "nested", "evals"):
                out[f"{layer}.{field}"] = getattr(st, field)
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
