"""Per-layer tracing of toeplitz_spectra from outside the package.

``install`` replaces the public functions and methods of the package
modules with timing wrappers, before ``toeplitz_spectra.cli`` is imported,
and rebinds every module global that pointed at an original, so
``from .quad import ...`` names are traced too.  Nothing under ``src/``
changes.  Each call opens a span (name, start, end, parent) kept in memory;
``traced_cli.py`` writes them when the command ends.

Self time is a span's duration minus the time its child spans and the
tracer's own hooks cover.  Every span's self time goes to one bucket named
after the per-layer metric it feeds (``BUCKETS``); public functions not
listed there go to ``<module>.other_s``.  The root span ``cli.main``'s own
self time plus the hooks' time is ``trace.unattributed_s``, so the self
times of all buckets plus the unattributed time add up to the root span.

Counts marked *computed* in ``COMPUTED`` are derived from argument sizes
(not measured): ``quad.fourier_evals``, ``spectra.raster_segments`` and
``radical.dense_flops``.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

MODULES = ("lattice", "quad", "symbols", "assembly", "spectra", "gelfand", "radical")
ROOT = "cli.main"

# Span name -> bucket.  "module.Class.*" covers every traced method of a class,
# "module.*" every traced function of a module.
BUCKETS = {
    "lattice.*": "lattice.basis_s",
    "lattice.GlobalBasis.*": "lattice.basis_s",
    "quad.jacobi_rule_01": "quad.rule_s",
    "quad.jacobi_probability_rule_01": "quad.rule_s",
    "quad.dirichlet_probability_rule": "quad.rule_s",
    "quad.SimplexRule.plain": "quad.rule_s",
    "quad.SimplexRule.weighted": "quad.rule_s",
    "quad.fourier_on_points": "quad.fourier_s",
    "quad.torus_fourier_coefficient": "quad.fourier_s",
    "quad.torus_grid": "quad.fourier_s",
    "symbols.SymbolExpression.*": "symbols.eval_s",
    "symbols.MonomialProfile.__call__": "symbols.eval_s",
    "symbols.CallableProfile.__call__": "symbols.eval_s",
    "symbols.PseudoHomogeneousSymbol.__call__": "symbols.eval_s",
    "symbols.QuasiRadialSymbol.__call__": "symbols.eval_s",
    "assembly.gamma_quasi_radial": "assembly.gamma_s",
    "assembly.AlgebraModel.gamma": "assembly.gamma_s",
    "assembly.AlgebraModel.kappa_matrix": "assembly.kappa_matrix_s",
    "assembly.BlockCache.load": "assembly.cache_load_s",
    "assembly.BlockCache.store": "assembly.cache_store_s",
    "spectra.block_eigenvalues": "spectra.eig_s",
    "spectra.SpectralContext.eigen": "spectra.eig_s",
    "spectra.essential_spectrum_estimate": "spectra.raster_s",
    "spectra.PlanarRegion.draw_polyline": "spectra.raster_s",
    "spectra.PlanarRegion.from_points": "spectra.raster_s",
    "spectra.PlanarRegion.from_curve": "spectra.raster_s",
    "spectra.PlanarRegion.empty": "spectra.raster_s",
    "spectra.polynomial_hull_2d": "spectra.hull_fill_s",
    "spectra.SpectralContext.hulled_ess_region": "spectra.hull_fill_s",
    "spectra.PlanarRegion.contains_point": "spectra.contains_point_s",
    "spectra.berezin_sequence": "spectra.berezin_s",
    "spectra.PlanarRegion.run_length_rows": "cli.report_s",
    "gelfand.sample_ideal_space": "gelfand.sample_s",
    "gelfand.admissible_zeta": "gelfand.sample_s",
    "gelfand.validate_gelfand_point": "gelfand.validate_s",
    "gelfand.evaluate_gelfand": "gelfand.eval_s",
    "gelfand.assemble_finite_sum": "gelfand.finite_sum_s",
    "gelfand.FiniteSum.*": "gelfand.finite_sum_s",
    "gelfand.DiagonalCoefficient.*": "gelfand.finite_sum_s",
    "radical.is_semisimple": "radical.semisimple_s",
    "radical.is_diagonalizable": "radical.semisimple_s",
    "radical.radical_generator": "radical.generator_s",
    "radical.h_polynomial": "radical.generator_s",
    "radical.HPolynomial.*": "radical.generator_s",
    "radical.decompose_by_division": "radical.division_s",
    "radical.power_norm_sequence": "radical.power_norms_s",
    "radical.DivisionParts.reconstruction_residual": "radical.reconstruction_s",
    "cli.load_config": "cli.build_setup_s",
    "cli.validate_config": "cli.build_setup_s",
    "cli.build_setup": "cli.build_setup_s",
    "cli.write_report": "cli.report_s",
    "cli.canonical_payload_bytes": "cli.report_s",
    "cli._write_spectra_csv": "cli.report_s",
    "cli._region_json": "cli.report_s",
    "cli._region_svg": "cli.report_s",
    "cli.*": "cli.commands_s",
}

# Private helpers traced on purpose: the report side files.
PRIVATE = {"cli._write_spectra_csv", "cli._region_json", "cli._region_svg"}
# Operator dunders that do real work.
DUNDERS = {"__call__", "__matmul__", "__add__", "__sub__", "__mul__", "__rmul__"}
EXPLICIT_INIT = {"lattice.GlobalBasis"}  # its constructor builds the truncation basis
COMPUTED = ("quad.fourier_evals", "spectra.raster_segments", "radical.dense_flops")
MAX_SPANS = 100_000  # spans kept per command; later ones are only counted


def bucket_of(name: str) -> str:
    if name in BUCKETS:
        return BUCKETS[name]
    parts = name.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        key = ".".join(parts[:cut]) + ".*"
        if key in BUCKETS:
            return BUCKETS[key]
    return f"{parts[0]}.other_s"


class Tracer:
    """Span stack with online self-time accounting; spans kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.origin = clock()
        self.stack: list[list] = []  # [span index, bucket, start, child time]
        self.names: dict[str, int] = {}
        self.spans: list[tuple] = []  # (name id, start, end, parent span index)
        self.dropped = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.entries: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.distinct: dict[str, set] = defaultdict(set)
        self.hook_s = 0.0
        self.root_s = 0.0
        self.root_self_s = 0.0
        self.paused = False

    def call(self, name: str, bucket: str, fn, args, kwargs, hook=None):
        if self.paused:
            return fn(*args, **kwargs)
        state = self._hook(hook.before, args, kwargs) if hook else None
        parent = self.stack[-1] if self.stack else None
        if len(self.spans) < MAX_SPANS:
            index = len(self.spans)
            self.spans.append(None)
        else:
            index = -1
            self.dropped += 1
        frame = [index, bucket, self.clock(), 0.0]
        self.stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = self.clock()
            self.stack.pop()
            duration = end - frame[2]
            own = duration - frame[3]
            if parent is None:
                self.root_s += duration
                self.root_self_s += own
            else:
                parent[3] += duration
                self.self_s[bucket] += own
            outer = parent is None or parent[1] != bucket
            if outer:
                self.entries[bucket] += 1
            if index >= 0:
                name_id = self.names.setdefault(name, len(self.names))
                self.spans[index] = (
                    name_id, frame[2] - self.origin, end - self.origin,
                    parent[0] if parent else -1,
                )
        if hook:
            self._hook(hook.after, state, args, kwargs, result, duration, outer)
        return result

    def _hook(self, fn, *args):
        """Run tracer bookkeeping untraced; its time is kept out of self times."""
        start = self.clock()
        self.paused = True
        try:
            return fn(self, *args)
        finally:
            self.paused = False
            spent = self.clock() - start
            self.hook_s += spent
            if self.stack:
                self.stack[-1][3] += spent

    def wrap(self, name: str, fn, hook=None):
        bucket = bucket_of(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, bucket, fn, args, kwargs, hook)

        return traced

    def summary(self) -> dict:
        names = sorted(self.names, key=self.names.get)
        return {
            "root_s": self.root_s,
            "self_s": dict(self.self_s),
            "unattributed_s": self.root_self_s + self.hook_s,
            "hook_s": self.hook_s,
            "entries": dict(self.entries),
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "span_names": names,
            "spans": [[round(v, 7) if isinstance(v, float) else v for v in s] for s in self.spans if s],
            "dropped_spans": self.dropped,
        }


class Hook:
    """Bookkeeping around one traced function: before() state, after() counts."""

    def __init__(self, before=None, after=None):
        self.before = before or (lambda tracer, args, kwargs: None)
        self.after = after or (lambda tracer, state, args, kwargs, result, seconds, outer: None)


def _arg(args, kwargs, index: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _block_before(tracer, args, kwargs):
    model, j, d = args[0], _arg(args, kwargs, 1, "j"), _arg(args, kwargs, 2, "d")
    hits = model.cache.hits if model.cache is not None else 0
    return (j, d) in model._blocks, hits


def _block_after(tracer, state, args, kwargs, result, seconds, outer):
    memoized, hits = state
    if memoized:
        return
    model, j = args[0], _arg(args, kwargs, 1, "j")
    sym = model.symbols.get(j)
    if sym is None:
        path = "identity"
    elif model.cache is not None and model.cache.hits > hits:
        path = "cache_hit"
    else:
        declared = sym.declared_mode_dict()
        closed = declared is not None and all(
            type(p).__name__ == "MonomialProfile" for p in declared.values()
        )
        path = "closed_form" if closed else "quadrature"
    tracer.counts[f"assembly.blocks_{path}"] += 1
    tracer.counts[f"assembly.{path}_s"] += seconds


def _cache_after(tracer, state, args, kwargs, result, seconds, outer):
    mat = result if result is not None else _arg(args, kwargs, 5, "mat")
    if mat is not None:
        tracer.counts["assembly.cache_bytes"] += mat.nbytes


def _fourier_after(tracer, state, args, kwargs, result, seconds, outer):
    points = _arg(args, kwargs, 1, "s_points")
    p = _arg(args, kwargs, 2, "p")
    grid = _arg(args, kwargs, 3, "grid", 64)
    tracer.counts["quad.fourier_evals"] += points.shape[0] * grid ** len(p)


def _torus_coefficient_after(tracer, state, args, kwargs, result, seconds, outer):
    p = _arg(args, kwargs, 1, "p")
    tracer.counts["quad.fourier_evals"] += _arg(args, kwargs, 3, "grid", 64) ** len(p)


def _eig_after(tracer, state, args, kwargs, result, seconds, outer):
    import numpy as np

    block = args[0]
    mat = np.asarray(getattr(block, "mat", block))
    fast = mat.shape[0] == 0 or not np.any(np.tril(mat, -1)) or not np.any(np.triu(mat, 1))
    tracer.counts["spectra.eig_blocks"] += 1
    tracer.counts["spectra.eig_fast_blocks"] += int(fast)


def _polyline_after(tracer, state, args, kwargs, result, seconds, outer):
    import numpy as np

    n = np.asarray(_arg(args, kwargs, 1, "points")).size
    closed = _arg(args, kwargs, 2, "closed", False)
    if n > 1:
        tracer.counts["spectra.raster_segments"] += n if closed else n - 1


def _region_after(tracer, state, args, kwargs, result, seconds, outer):
    """Key each rasterized region by its grid and content source."""
    if not outer or result is None:
        return
    sym = args[0] if args and hasattr(args[0], "content_key") else None
    source = sym.content_key if sym is not None else (
        hash(result.samples.tobytes()) if result.samples is not None else result.provenance
    )
    key = (source, round(result.x0, 12), round(result.y0, 12), round(result.cell, 14), result.resolution)
    tracer.distinct["spectra.raster_grids"].add(key)


def _sample_after(tracer, state, args, kwargs, result, seconds, outer):
    tracer.counts["gelfand.points"] += len(result)


def _basis_after(tracer, state, args, kwargs, result, seconds, outer):
    tracer.counts["lattice.basis_dim"] = max(tracer.counts["lattice.basis_dim"], args[0].dim)


def _diagonalizable_after(tracer, state, args, kwargs, result, seconds, outer):
    if result.indeterminate and kwargs.get("eigen") is not None:
        tracer.counts["radical.refinements"] += 1


def _reconstruction_after(tracer, state, args, kwargs, result, seconds, outer):
    parts, model, D = args[0], _arg(args, kwargs, 1, "model"), _arg(args, kwargs, 2, "D")
    n = model.basis(D).dim
    matmuls = parts.n + sum(len(h.roots) for h in parts.h_polys)
    tracer.counts["radical.dense_dim"] = max(tracer.counts["radical.dense_dim"], n)
    tracer.counts["radical.dense_flops"] += 8.0 * n ** 3 * matmuls


HOOKS = {
    "assembly.AlgebraModel.block": Hook(_block_before, _block_after),
    "assembly.BlockCache.load": Hook(after=_cache_after),
    "assembly.BlockCache.store": Hook(after=_cache_after),
    "quad.fourier_on_points": Hook(after=_fourier_after),
    "quad.torus_fourier_coefficient": Hook(after=_torus_coefficient_after),
    "spectra.block_eigenvalues": Hook(after=_eig_after),
    "spectra.PlanarRegion.draw_polyline": Hook(after=_polyline_after),
    "spectra.essential_spectrum_estimate": Hook(after=_region_after),
    "spectra.PlanarRegion.from_points": Hook(after=_region_after),
    "spectra.PlanarRegion.from_curve": Hook(after=_region_after),
    "gelfand.sample_ideal_space": Hook(after=_sample_after),
    "lattice.GlobalBasis.__init__": Hook(after=_basis_after),
    "radical.is_diagonalizable": Hook(after=_diagonalizable_after),
    "radical.DivisionParts.reconstruction_residual": Hook(after=_reconstruction_after),
}


def _traceable_methods(cls, prefix: str):
    for attr, raw in list(vars(cls).items()):
        public = not attr.startswith("_") or attr in DUNDERS
        if attr == "__init__" and prefix in EXPLICIT_INIT:
            public = True
        if not public:
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            yield attr, raw, raw.__func__
        elif inspect.isfunction(raw):
            yield attr, raw, raw


def wrap_module(tracer: Tracer, module, short: str) -> dict[int, object]:
    """Wrap a module's own public functions and class methods in place.

    Returns {id(original): wrapper} for module-level functions, so that names
    other modules imported from this one can be rebound.
    """
    replaced = {}
    for attr, obj in list(vars(module).items()):
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        name = f"{short}.{attr}"
        if inspect.isclass(obj):
            if issubclass(obj, BaseException):
                continue
            for meth, raw, fn in _traceable_methods(obj, name):
                full = f"{name}.{meth}"
                traced = tracer.wrap(full, fn, HOOKS.get(full))
                if isinstance(raw, classmethod):
                    traced = classmethod(traced)
                elif isinstance(raw, staticmethod):
                    traced = staticmethod(traced)
                setattr(obj, meth, traced)
        elif callable(obj) and (not attr.startswith("_") or name in PRIVATE):
            traced = tracer.wrap(name, obj, HOOKS.get(name))
            setattr(module, attr, traced)
            replaced[id(obj)] = traced
    return replaced


def rebind(modules, replaced: dict[int, object]) -> None:
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if id(obj) in replaced:
                setattr(module, attr, replaced[id(obj)])


def install(tracer: Tracer, modules: list) -> None:
    """Wrap the layer modules (in MODULES order); call before importing cli."""
    replaced = {}
    for short, module in zip(MODULES, modules):
        replaced.update(wrap_module(tracer, module, short))
    rebind(modules, replaced)


def install_cli(tracer: Tracer, cli) -> None:
    """Wrap the cli module, including the command table's entries."""
    replaced = wrap_module(tracer, cli, "cli")
    for command, fn in list(cli.COMMANDS.items()):
        cli.COMMANDS[command] = replaced.get(id(fn), fn)


def rule_cache_info(quad) -> dict:
    """Hits and misses of the quadrature rule builders' lru caches."""
    hits = misses = 0
    for name in ("jacobi_rule_01", "jacobi_probability_rule_01", "_dirichlet_rule_cached"):
        fn = getattr(quad, name)
        info = (fn if hasattr(fn, "cache_info") else fn.__wrapped__).cache_info()
        hits += info.hits
        misses += info.misses
    return {"hits": hits, "misses": misses}


# ---------------------------------------------------------------------------
# Per-layer metrics from the traces of one command sequence
# ---------------------------------------------------------------------------

TIME_METRICS = (
    "cli.build_setup_s", "cli.report_s", "lattice.basis_s", "quad.rule_s", "quad.fourier_s",
    "symbols.eval_s", "assembly.cache_load_s", "assembly.cache_store_s", "assembly.gamma_s",
    "assembly.kappa_matrix_s", "spectra.eig_s", "spectra.raster_s", "spectra.hull_fill_s",
    "spectra.contains_point_s", "spectra.berezin_s", "gelfand.sample_s", "gelfand.validate_s",
    "gelfand.eval_s", "gelfand.finite_sum_s", "radical.semisimple_s", "radical.generator_s",
    "radical.division_s", "radical.power_norms_s", "radical.reconstruction_s",
)
ENTRY_METRICS = {
    "quad.rule_calls": "quad.rule_s", "quad.fourier_calls": "quad.fourier_s",
    "symbols.eval_calls": "symbols.eval_s", "assembly.gamma_calls": "assembly.gamma_s",
    "assembly.kappa_matrix_calls": "assembly.kappa_matrix_s",
    "spectra.raster_calls": "spectra.raster_s",
    "spectra.contains_point_calls": "spectra.contains_point_s",
    "gelfand.eval_calls": "gelfand.eval_s",
}
COUNT_METRICS = (
    "quad.fourier_evals", "assembly.blocks_closed_form", "assembly.blocks_quadrature",
    "assembly.blocks_cache_hit", "assembly.closed_form_s", "assembly.quadrature_s",
    "assembly.cache_bytes", "spectra.eig_blocks", "spectra.raster_segments", "gelfand.points",
    "radical.refinements", "radical.dense_flops",
)
MAX_METRICS = ("lattice.basis_dim", "radical.dense_dim")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def aggregate(traces: list[dict], overhead_s: float) -> dict:
    """Sum one sequence's per-command traces into the per-layer metrics."""
    total, entries = defaultdict(float), defaultdict(int)
    for t in traces:
        for name, value in t["entries"].items():
            entries[name] += value
        for key in ("self_s", "counts"):
            for name, value in t[key].items():
                if name in MAX_METRICS:
                    total[name] = max(total[name], value)
                else:
                    total[name] += value
        total["rule.hits"] += t["rule_cache"]["hits"]
        total["rule.misses"] += t["rule_cache"]["misses"]
        total["raster.distinct"] += t["distinct"].get("spectra.raster_grids", 0)
        total["import_s"] += t["import_s"]
        total["unattributed_s"] += t["unattributed_s"]
    m = {"cli.import_s": total["import_s"]}
    m.update({name: total[name] for name in TIME_METRICS})
    m.update({name: entries[bucket] for name, bucket in ENTRY_METRICS.items()})
    m.update({name: total[name] for name in COUNT_METRICS + MAX_METRICS})
    m["quad.rule_hit_ratio"] = _ratio(total["rule.hits"], total["rule.hits"] + total["rule.misses"])
    m["spectra.eig_fast_path_share"] = _ratio(total["spectra.eig_fast_blocks"], total["spectra.eig_blocks"])
    m["spectra.raster_reuse_ratio"] = _ratio(total["raster.distinct"], entries["spectra.raster_s"])
    m["trace.overhead_s"] = overhead_s
    m["trace.unattributed_s"] = total["unattributed_s"]
    return m


def print_breakdown(traces: dict, top: int = 5) -> None:
    """Per command: traced span, the largest self-time buckets, unattributed."""
    for command, t in traces.items():
        root = t["root_s"]
        ranked = sorted(t["self_s"].items(), key=lambda kv: -kv[1])[:top]
        parts = ", ".join(f"{name} {sec:.3f}s ({sec / root:.0%})" for name, sec in ranked)
        print(f"trace {command}: span {root:.3f}s; {parts}; "
              f"unattributed {t['unattributed_s']:.3f}s; import {t['import_s']:.3f}s"
              + (f"; {t['dropped_spans']} spans over the cap" if t["dropped_spans"] else ""))
