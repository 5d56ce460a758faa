"""Spans and counts at the package's layer boundaries, from outside it.

``Tracer.install`` replaces each traced function under every name the
package looks it up by (a module global in any ``entropart`` module, a
class attribute, or an attribute of the active kernel backend module),
and ``uninstall`` puts the originals back. Spans stay in memory until
the run ends. A span is ``[name, start, end, parent, op]``; a layer is the
first component of the span name.
"""
import collections
import inspect
import sys
import time
import tracemalloc

MIB = 1024.0 * 1024.0


def _arguments(fn):
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments


def _targets():
    """(span name, owner, attribute, hook) for every traced function.

    A hook gets (tracer, bound arguments, result) after the call and
    records counts of the current operation.
    """
    from entropart import (analysis, cli, models, quadrature, renyi,
                           shannon, wfnio)
    from entropart.backends import get_backend
    from entropart.density import PairDensityField, PrimitiveBasis

    def bytes_parsed(t, a, result):
        t.add("wfnio.bytes_parsed", len(a["text"].encode()))

    def grid_points(t, a, result):
        mol, spec = result.molecule, result.spec
        t.add("quadrature.points_kept", len(result))
        t.add("quadrature.points_screened",
              len(mol) * spec.n_radial * spec.lebedev_order - len(result))

    def integrate_points(t, a, result):
        weights = a.get("weights")
        if weights is None:
            weights = a["grid"].weights
        t.add("quadrature.integrate.points", len(weights))

    def prim_values(t, a, result):
        t.add("density.prim_values", result.size)

    def pair_arrays(t, a, result):
        # computed, not measured: what the unique pair arrays of one call
        # hold at once; the largest call of the operation counts
        rho, pairs = result
        counts = t.counts[t.op]
        counts["density.pair_arrays_bytes"] = max(
            counts["density.pair_arrays_bytes"], len(pairs) * len(rho) * 8)

    def p4_tuples(t, a, result):
        t.add("renyi.p4_tuples", len(result.p4))

    backend = get_backend()
    return [
        ("cli.main", cli, "main", None),
        ("analysis.analyze_model", analysis, "analyze_model", None),
        ("analysis.analyze_field", analysis, "analyze_field", None),
        ("analysis.hydrogen_reference", analysis, "hydrogen_reference", None),
        ("models.build_model", models, "build_model", None),
        ("models.integral_engine", models, "integral_engine", None),
        ("models.hydrogen_atom_energy", models, "hydrogen_atom_energy", None),
        ("wfnio.parse_wfn", wfnio, "parse_wfn", bytes_parsed),
        ("wfnio.field_from_document", wfnio, "field_from_document", None),
        ("quadrature.build_molecular_grid", quadrature,
         "build_molecular_grid", grid_points),
        ("quadrature.becke_weights", quadrature, "becke_weights", None),
        ("quadrature.integrate", quadrature, "integrate", integrate_points),
        ("density.pair_fields", PairDensityField, "pair_fields", pair_arrays),
        ("density.density", PairDensityField, "density", None),
        ("density.evaluate", PrimitiveBasis, "evaluate", prim_values),
        ("backends.becke_weights_kernel", backend, "becke_weights_kernel", None),
        ("backends.eval_primitives", backend, "eval_primitives", None),
        ("backends.quad_form", backend, "quad_form", None),
        ("backends.quad_form_block", backend, "quad_form_block", None),
        ("shannon.shannon_from_arrays", shannon, "shannon_from_arrays", None),
        ("renyi.renyi_total", renyi, "renyi_total", None),
        ("renyi.renyi_net_nadd_intra", renyi, "renyi_net_nadd_intra", None),
        ("renyi.renyi2_partition", renyi, "renyi2_partition", p4_tuples),
    ]


# spans whose traced peak memory is recorded when the tracer's memory flag is set
PEAK_SPANS = ("analysis.analyze_field", "quadrature.build_molecular_grid")
CLAMP_SPANS = ("density.pair_fields", "density.density")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = collections.defaultdict(collections.Counter)
        self.peaks = collections.defaultdict(float)
        self._stack = []
        self.op = None
        # record traced peaks (tracemalloc), which slows allocation-heavy
        # code; timings come from operations traced without it
        self.memory = False
        self._patches = []
        self._wrappers = {}

    def add(self, name, amount):
        """Add to a count of the current operation."""
        self.counts[self.op][name] += amount

    def _wrap(self, name, fn, hook):
        bind = _arguments(fn)
        spans, stack = self.spans, self._stack
        layer_calls = name.split(".")[0] + ".calls"
        peak = name in PEAK_SPANS
        clamp = name in CLAMP_SPANS

        def wrapper(*args, **kwargs):
            op = self.op
            parent = stack[-1] if stack else -1
            record = [name, 0.0, 0.0, parent, op]
            index = len(spans)
            spans.append(record)
            stack.append(index)
            own_tracemalloc = peak and self.memory and not tracemalloc.is_tracing()
            if own_tracemalloc:
                tracemalloc.start()
            if clamp:
                diag = args[0].diagnostics
                before = (diag.clamped, diag.negated)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
                if own_tracemalloc:
                    mib = tracemalloc.get_traced_memory()[1] / MIB
                    tracemalloc.stop()
                    key = (op, name)
                    self.peaks[key] = max(self.peaks[key], mib)
            counts = self.counts[op]
            counts[name + ".calls"] += 1
            counts[layer_calls] += 1
            if clamp:
                counts["density.clamped"] += diag.clamped - before[0]
                counts["density.negated"] += diag.negated - before[1]
            if hook is not None:
                hook(self, bind(args, kwargs), result)
            return result

        return wrapper

    def install(self):
        """Wrap every target under each name that refers to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "entropart" or n.startswith("entropart."))]
        for name, owner, attr, hook in _targets():
            original = getattr(owner, attr)
            if name not in self._wrappers:
                self._wrappers[name] = self._wrap(name, original, hook)
            wrapper = self._wrappers[name]
            owners = [owner] if isinstance(owner, type) else modules
            bound = 0
            for obj in owners:
                for key, value in list(vars(obj).items()):
                    if value is original:
                        self._patches.append((obj, key, original))
                        setattr(obj, key, wrapper)
                        bound += 1
            if bound == 0:
                raise RuntimeError(f"no binding of {name} found to wrap")

    def uninstall(self):
        for obj, key, original in reversed(self._patches):
            setattr(obj, key, original)
        self._patches = []

    def begin_op(self, op):
        """Open the root span of one operation."""
        self.op = op
        self._stack.append(len(self.spans))
        self.spans.append(["op", time.perf_counter(), 0.0, -1, op])

    def end_op(self):
        index = self._stack.pop()
        self.spans[index][2] = time.perf_counter()
        self.op = None
        return self.spans[index][2] - self.spans[index][1]

    def summary(self, op):
        """Per-operation totals: inclusive and self seconds per span name,
        self seconds per layer, counts and traced peaks."""
        own = [i for i, s in enumerate(self.spans) if s[4] == op]
        child = collections.defaultdict(float)
        for i in own:
            name, start, end, parent, _ = self.spans[i]
            if parent >= 0:
                child[parent] += end - start
        inclusive = collections.defaultdict(float)
        self_s = collections.defaultdict(float)
        layer_self = collections.defaultdict(float)
        total = 0.0
        for i in own:
            name, start, end, parent, _ = self.spans[i]
            own_time = (end - start) - child[i]
            inclusive[name] += end - start
            self_s[name] += own_time
            layer_self["bench" if name == "op" else name.split(".")[0]] += own_time
            if name == "op":
                total = end - start
        peaks = {name: mib for (o, name), mib in self.peaks.items() if o == op}
        return {"total_s": total, "inclusive_s": dict(inclusive),
                "self_s": dict(self_s), "layer_self_s": dict(layer_self),
                "counts": dict(self.counts[op]), "peak_mib": peaks}


TIMED_SUFFIXES = (".s", ".self_s", ".peak_mib")


def is_exact_count(name):
    """A per-layer metric whose per-operation value must repeat exactly."""
    return not (name.endswith(TIMED_SUFFIXES) or name.startswith("share.")
                or name.startswith("trace."))


def layer_metric(name, summary):
    """Value of one per-layer metric of BENCHMARK.json for one operation.

    The metric name selects the figure: ``share.<layer>`` is the layer's
    percentage of the operation's self time, ``<span>.self_s`` self
    seconds, ``<span>.s`` inclusive seconds, ``<span>.peak_mib`` the
    traced peak; any other name is a count. A span that did not run
    reads 0.
    """
    if name.startswith("share."):
        layer = name[len("share."):]
        return 100.0 * summary["layer_self_s"].get(layer, 0.0) / summary["total_s"]
    if name == "density.pair_arrays_mib":
        return summary["counts"].get("density.pair_arrays_bytes", 0) / MIB
    for suffix, table in ((".self_s", "self_s"), (".s", "inclusive_s"),
                          (".peak_mib", "peak_mib")):
        if name.endswith(suffix):
            return summary[table].get(name[:-len(suffix)], 0.0)
    return summary["counts"].get(name, 0)
