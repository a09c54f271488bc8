"""Span tracing of diamondwave layers by wrapping functions from outside.

Each wrapped callable records a span (id, parent id, name, start, end,
counts) while a run is traced.  Wrappers are installed at the name the
caller resolves at call time: a module attribute for module-level calls, a
class attribute for methods, or an instance attribute for a method called
on one object (the workload's own metric).  `Tracer.restore` puts every
original back and `Tracer.check_restored` verifies it.

Spans are kept in memory and summarised per operation by `Tracer.summary`.
"""

import time

import numpy as np

# layers in the order they are reported; every metric name starts with one
LAYERS = ("recovery", "exprs", "sources", "go", "solver", "geometry",
          "fermi", "beam")

# counters per operation: (metric name, unit, better)
COUNT_METRICS = [
    ("recovery.series_calls", "count", "lower"),
    ("recovery.quad_nodes", "count", "lower"),
    ("recovery.joint_support_frac", "ratio", "higher"),
    ("exprs.eval_calls", "count", "lower"),
    ("exprs.eval_points", "count", "lower"),
    ("sources.surgery_calls", "count", "lower"),
    ("go.packet_builds", "count", "lower"),
    ("solver.marches", "count", "lower"),
    ("solver.steps", "count", "lower"),
    ("solver.cell_updates", "count", "lower"),
    ("solver.cell_updates_per_s", "1/s", "higher"),
    ("solver.bytes_per_step_computed", "B", "lower"),
    ("geometry.geodesic_calls", "count", "lower"),
    ("geometry.christoffel_calls", "count", "lower"),
    ("geometry.christoffel_points", "count", "lower"),
    ("fermi.forward_calls", "count", "lower"),
]

# spans whose inclusive time per operation is reported as <span>_s
TIMED_SPANS = (
    "recovery.series", "recovery.amplitudes", "recovery.cross_derivative",
    "recovery.pairing", "exprs.eval", "sources.returning", "sources.surgery",
    "sources.wave_operator", "go.packet_build", "solver.march",
    "geometry.geodesic", "geometry.christoffel", "fermi.chart",
    "fermi.forward", "beam.riccati", "beam.phase", "beam.amplitudes",
    "beam.residual",
)

# counts that must repeat exactly when the same operation runs again
EXACT_COUNTS = ("solver.marches", "solver.steps", "recovery.quad_nodes",
                "recovery.joint_support_nodes")


def per_layer_metrics():
    """[(name, unit, better)] of every metric a traced run reports."""
    out = list(COUNT_METRICS)
    out += [(f"{span}_s", "s", "lower") for span in TIMED_SPANS]
    out += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    out += [("trace.op_s", "s", "lower"), ("trace.top_coverage", "ratio",
                                           "higher")]
    return out


class Span:
    __slots__ = ("sid", "parent", "name", "start", "end", "counts")

    def __init__(self, sid, parent, name):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.start = time.perf_counter()
        self.end = None
        self.counts = {}


class Tracer:
    """Records spans of wrapped calls made inside `op` blocks."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []      # (owner, attr, original, owned)

    # -- spans -----------------------------------------------------------
    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), None if parent is None else parent.sid,
                    name)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def parent_of(self, span):
        return None if span.parent is None else self.spans[span.parent]

    def op(self, fn, *args, **kwargs):
        """Run fn as one traced operation; returns (result, root span).

        Spans of earlier operations are dropped, so span ids index `spans`.
        """
        self.spans = []
        root = self._open("op")
        try:
            return fn(*args, **kwargs), root
        finally:
            self._close(root)

    def summary(self, root):
        """Counts, inclusive times, layer self times and coverage of one op."""
        spans = self.spans[root.sid + 1:]
        child_time = {}
        for s in spans:
            child_time[s.parent] = child_time.get(s.parent, 0.0) \
                + (s.end - s.start)
        counts, incl, self_s = {}, {}, {layer: 0.0 for layer in LAYERS}
        top = 0.0
        for s in spans:
            dur = s.end - s.start
            for k, v in s.counts.items():
                if k.startswith("_"):       # left by a call that raised
                    continue
                if k == "solver.bytes_per_step_computed":
                    counts[k] = max(counts.get(k, 0), v)
                else:
                    counts[k] = counts.get(k, 0) + v
            incl[s.name] = incl.get(s.name, 0.0) + dur
            self_s[s.name.split(".")[0]] += dur - child_time.get(s.sid, 0.0)
            if s.parent == root.sid:
                top += dur
        op_s = root.end - root.start
        return {"op_s": op_s, "counts": counts, "incl": incl, "self": self_s,
                "coverage": top / op_s}

    # -- wrapping --------------------------------------------------------
    def wrap(self, owner, attr, name, count=None, before=None, after=None):
        """Replace owner.attr by a span-recording wrapper.

        Each call adds 1 to the counter `count`, if given;
        `before(span, args, kwargs)` and `after(span, args, kwargs, result)`
        may add further counts to the span.  Calls made outside an `op`
        block pass straight through.
        """
        owned = attr in vars(owner)
        original = vars(owner)[attr] if owned else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return original(*args, **kwargs)
            span = tracer._open(name)
            try:
                if count is not None:
                    _add(span, count, 1)
                if before is not None:
                    before(span, args, kwargs)
                result = original(*args, **kwargs)
                if after is not None:
                    after(span, args, kwargs, result)
                return result
            finally:
                tracer._close(span)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, owned))

    def restore(self):
        for owner, attr, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def check_restored(self):
        """Names whose original is not back in place (empty when all are)."""
        bad = []
        for owner, attr, original, owned in self._patches:
            if owned and vars(owner).get(attr) is not original:
                bad.append(attr)
            if not owned and attr in vars(owner):
                bad.append(attr)
        return bad


# ---------------------------------------------------------------------------
# layer wrappers


def _points(x):
    return int(np.prod(np.shape(x)[:-1]))


def _add(span, key, value):
    span.counts[key] = span.counts.get(key, 0) + value


def install(tracer, metric):
    """Wrap the public entry points of every layer; `metric` is the
    workload's own metric object, whose `christoffel` is wrapped on the
    instance because geodesic and chart code call it through the object."""
    from diamondwave import (beam, exprs, fermi, geometry, go, recovery,
                             solver, sources)

    # recovery: quadrature nodes, and nodes where all four a0 are nonzero
    def nodes(span, args, kwargs, result):
        _add(span, "recovery.quad_nodes", len(result[0]))

    def joint_open(span, args, kwargs):
        span.counts["_joint"] = None

    def joint_mask(span, args, kwargs, result):
        parent = tracer.parent_of(span)
        if parent is None or "_joint" not in parent.counts:
            return
        nz = np.asarray(result[0]) != 0
        prev = parent.counts["_joint"]
        parent.counts["_joint"] = nz if prev is None else prev & nz

    def joint_close(span, args, kwargs, result):
        mask = span.counts.pop("_joint")
        if mask is not None:
            _add(span, "recovery.joint_support_nodes", int(mask.sum()))
            _add(span, "recovery.joint_eval_nodes", int(mask.size))

    tracer.wrap(recovery, "interaction_series", "recovery.series",
                count="recovery.series_calls", before=joint_open,
                after=joint_close)
    tracer.wrap(recovery, "asymptotic_I", "recovery.asymptotic",
                before=joint_open, after=joint_close)
    tracer.wrap(recovery, "tensor_quadrature", "recovery.quadrature",
                after=nodes)
    tracer.wrap(recovery.LinePacket, "amplitudes", "recovery.amplitudes",
                after=joint_mask)
    tracer.wrap(recovery, "cross_derivative", "recovery.cross_derivative")
    tracer.wrap(recovery, "pairing_integral", "recovery.pairing")

    # exprs: parsed potentials evaluated on point batches
    def points(span, args, kwargs):
        _add(span, "exprs.eval_points", _points(args[1]))

    tracer.wrap(exprs.ScalarField, "__call__", "exprs.eval",
                count="exprs.eval_calls", before=points)

    # sources: returning geodesics, surgery, and the wave operator under the
    # name surgery imported it by as well as its home module
    tracer.wrap(sources, "find_returning_geodesics", "sources.returning")
    tracer.wrap(sources, "make_source", "sources.surgery",
                count="sources.surgery_calls")
    tracer.wrap(sources, "make_test_function", "sources.surgery",
                count="sources.surgery_calls")
    tracer.wrap(sources, "apply_wave_operator", "sources.wave_operator")
    tracer.wrap(solver, "apply_wave_operator", "sources.wave_operator")

    # go: grid-based packets built by the full route
    tracer.wrap(go.GOPacket, "__init__", "go.packet_build",
                count="go.packet_builds")

    # solver: marches, steps and cell updates derived from the grid; the
    # bytes are computed from array sizes (three time levels per step)
    def march(span, args, kwargs):
        grid, src = args[1], args[3]
        field = src.field if src.field is not None else src.slice(0)
        itemsize = 16 if np.iscomplexobj(field) else 8
        cells = int(np.prod(grid.shape))
        steps = grid.nt - 1
        _add(span, "solver.steps", steps)
        _add(span, "solver.cell_updates", steps * cells)
        span.counts["solver.bytes_per_step_computed"] = 3 * cells * itemsize

    tracer.wrap(solver, "solve_forward", "solver.march",
                count="solver.marches", before=march)
    tracer.wrap(solver, "solve_backward", "solver.march",
                count="solver.marches", before=march)

    # geometry: null geodesics and Christoffel symbols of the metric in use
    def christoffel_points(span, args, kwargs):
        _add(span, "geometry.christoffel_points", _points(args[0]))

    tracer.wrap(geometry, "integrate_null_geodesic", "geometry.geodesic",
                count="geometry.geodesic_calls")
    tracer.wrap(metric, "christoffel", "geometry.christoffel",
                count="geometry.christoffel_calls", before=christoffel_points)

    # fermi: chart construction (frame transport) and the exponential map
    tracer.wrap(fermi.FermiChart, "__init__", "fermi.chart")
    tracer.wrap(fermi.FermiChart, "forward", "fermi.forward",
                count="fermi.forward_calls")

    # beam: the construction stages and the residual measurement
    tracer.wrap(beam, "solve_riccati", "beam.riccati")
    tracer.wrap(beam, "solve_phase_higher", "beam.phase")
    tracer.wrap(beam, "solve_amplitudes", "beam.amplitudes")
    tracer.wrap(beam, "beam_residual_scaling", "beam.residual")


# ---------------------------------------------------------------------------
# summaries


def per_layer_values(summaries):
    """Per-operation means of every per-layer metric over traced ops."""
    k = len(summaries)
    counts, incl, self_s = {}, {}, {layer: 0.0 for layer in LAYERS}
    for sm in summaries:
        for key, v in sm["counts"].items():
            counts[key] = counts.get(key, 0) + v
        for key, v in sm["incl"].items():
            incl[key] = incl.get(key, 0.0) + v
        for key, v in sm["self"].items():
            self_s[key] += v
    # plain counts; the ratios and the per-step size are set below
    out = {name: counts.get(name, 0) / k for name, _, _ in COUNT_METRICS}
    evaluated = counts.get("recovery.joint_eval_nodes", 0)
    out["recovery.joint_support_frac"] = (
        counts.get("recovery.joint_support_nodes", 0) / evaluated
        if evaluated else 0.0)
    out["solver.bytes_per_step_computed"] = max(
        sm["counts"].get("solver.bytes_per_step_computed", 0)
        for sm in summaries)
    march_s = incl.get("solver.march", 0.0)
    out["solver.cell_updates_per_s"] = (
        counts.get("solver.cell_updates", 0) / march_s if march_s else 0.0)
    for span in TIMED_SPANS:
        out[f"{span}_s"] = incl.get(span, 0.0) / k
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer] / k
    out["trace.op_s"] = float(np.median([sm["op_s"] for sm in summaries]))
    out["trace.top_coverage"] = float(np.median([sm["coverage"]
                                                 for sm in summaries]))
    return out


def exact_counts(summary):
    return {k: summary["counts"].get(k, 0) for k in EXACT_COUNTS}
