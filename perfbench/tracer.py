"""Spans around topiary's public functions, recorded from outside the program.

`Recorder.install()` replaces every public function of the layer modules at
every name it is bound under (`portfolio` and `maze` bind `solve` and
`fock` through `from ... import`), plus a few methods and the numpy/scipy
linear-algebra entry points the program calls through their module
objects. Each call appends one span (name, start, end, parent, job) to an
in-memory list; `uninstall()` restores the originals. Library spans
(eigvalsh, lu_factor, lu_solve) belong to the layer of their parent span.

A span's self time is its duration minus the durations of its direct
children. `job_metrics` turns one job's spans into the per-layer metrics.
"""

import gzip
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "formats", "kernel", "solver", "objective", "measure",
          "diagnostics", "portfolio", "maze")

# helpers too small and too hot to be worth a span each
SKIP = {"formats.fmt", "objective.as_psi", "cli.build_parser", "cli.main"}

METHODS = (
    ("kernel", "Kernel", "duplicate_groups"),
    ("kernel", "Kernel", "embed_distance"),
    ("portfolio", "PortfolioSpec", "__post_init__"),
)

LIBRARY = (
    ("numpy.linalg", "eigvalsh"),
    ("scipy.linalg", "lu_factor"),
    ("scipy.linalg", "lu_solve"),
)

KERNEL_CONSTRUCTORS = {"kernel.euclidean", "kernel.explicit_gram", "kernel.fock", "kernel.hardy"}
EIGVALSH = "numpy.linalg.eigvalsh"
LU = {"scipy.linalg.lu_factor", "scipy.linalg.lu_solve"}

ROOT = -1  # parent index of a job's root span

# the per-layer metrics, in the order BENCHMARK.json lists them
PER_LAYER = (
    ("formats.read_s", "s"), ("formats.write_s", "s"),
    ("formats.bytes_in", "bytes"), ("formats.bytes_out", "bytes"),
    ("kernel.build_s", "s"), ("kernel.psd_s", "s"), ("kernel.psd_calls", "count"),
    ("kernel.dedup_s", "s"), ("kernel.dedup_calls", "count"),
    ("kernel.n", "count"), ("kernel.gram_mb", "MB"),
    ("solver.solve_s", "s"), ("solver.lu_calls", "count"), ("solver.lu_s", "s"),
    ("solver.iterations", "count"), ("solver.support", "count"),
    ("solver.failures", "count"),
    ("objective.calls", "count"), ("objective.s", "s"),
    ("measure.calls", "count"), ("measure.s", "s"),
    ("diagnostics.capm_s", "s"), ("diagnostics.jc_s", "s"), ("diagnostics.sml_s", "s"),
    ("diagnostics.jc_pairs", "count"),
    ("portfolio.ingest_s", "s"), ("portfolio.optimize_s", "s"),
    ("portfolio.eig_calls", "count"),
    ("maze.solve_s", "s"), ("maze.field_s", "s"), ("maze.trace_s", "s"),
    ("maze.path_points", "count"), ("maze.clearance_min", "coord"),
    ("cli.self_s", "s"), ("trace.overhead_s", "s"),
)


def _observe_solve(result):
    return {"iterations": result.iterations, "support": len(result.support())}


def _observe_kernel(kern):
    return {"kernel_n": kern.n}


def _observe_trace(trace):
    return {"path_points": len(trace.points), "clearance": trace.clearance}


# functions whose return value carries a count worth keeping
OBSERVERS = {
    "solver.solve": _observe_solve,
    "maze.trace_path": _observe_trace,
    **{name: _observe_kernel for name in KERNEL_CONSTRUCTORS},
}


class Recorder:
    """In-memory span store plus the patching that feeds it."""

    def __init__(self):
        self.names = []  # name per name id
        self.layers = []  # layer per name id; None for library calls
        self.spans = []  # (name id, start, end, parent index, job)
        self.observed = []  # (job, span index, {key: value})
        self.failures = []  # (job, layer, exception class name)
        self.job = None
        self._stack = [ROOT]
        self._patches = []
        self._last_exc = None

    def name_id(self, name, layer):
        self.names.append(name)
        self.layers.append(layer)
        return len(self.names) - 1

    # -- recording ----------------------------------------------------------

    def wrap(self, fn, name, layer):
        nid = self.name_id(name, layer)
        observe = OBSERVERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not self._last_exc:  # count each exception once
                    self._last_exc = exc
                    self.failures.append((self.job, layer, type(exc).__name__))
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, self.job)
            if observe is not None:
                self.observed.append((self.job, idx, observe(out)))
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr), replacement))

    def install(self):
        """Wrap every public function of the layer modules at each binding.

        The wrappers are built on the first call and reused afterwards, so
        tracing can be switched on and off between jobs.
        """
        if not self._patches:
            self._build_patches()
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _build_patches(self):
        import importlib

        modules = {name: importlib.import_module("topiary." + name) for name in LAYERS}
        bound = [m for key, m in sorted(sys.modules.items())
                 if m is not None and (key == "topiary" or key.startswith("topiary."))]
        for layer, module in modules.items():
            for attr, value in sorted(vars(module).items()):
                name = "%s.%s" % (layer, attr)
                if (attr.startswith("_") or name in SKIP or not callable(value)
                        or isinstance(value, type)
                        or getattr(value, "__module__", None) != module.__name__):
                    continue
                traced = self.wrap(value, name, layer)
                for other in bound:
                    for other_attr, other_value in vars(other).items():
                        if other_value is value:
                            self._patch(other, other_attr, traced)
        for layer, cls, meth in METHODS:
            owner = getattr(modules[layer], cls)
            self._patch(owner, meth, self.wrap(getattr(owner, meth), "%s.%s.%s"
                                               % (layer, cls, meth), layer))
        for modname, attr in LIBRARY:
            owner = importlib.import_module(modname)
            self._patch(owner, attr, self.wrap(getattr(owner, attr),
                                               "%s.%s" % (modname, attr), None))

    # -- output -------------------------------------------------------------

    def write_spans(self, path):
        """Spans as gzip CSV: job, index, parent, name, start, end (seconds)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("job,index,parent,name,start,end\n")
            for idx, (nid, start, end, parent, job) in enumerate(self.spans):
                handle.write("%s,%d,%d,%s,%.9f,%.9f\n"
                             % (job, idx, parent, self.names[nid], start, end))


# -- arithmetic on span trees ----------------------------------------------------

def self_times(spans):
    """Self time of each span: duration minus its direct children's durations."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent != ROOT:
            own[parent] -= end - start
    return own


def resolved_layers(spans, layers):
    """Layer of each span; a library span takes the layer of its parent."""
    out = []
    for nid, _, _, parent, _ in spans:
        layer = layers[nid]
        out.append(layer if layer is not None or parent == ROOT else out[parent])
    return out


def layer_self_times(spans, layers):
    """Total self time per layer over the given spans."""
    totals = defaultdict(float)
    for own, layer in zip(self_times(spans), resolved_layers(spans, layers)):
        totals[layer] += own
    return dict(totals)


def job_spans(rec, job):
    """The spans of one job, re-indexed so parents point inside the list."""
    picked = [i for i, span in enumerate(rec.spans) if span[4] == job]
    where = {old: new for new, old in enumerate(picked)}
    return [(nid, start, end, where.get(parent, ROOT), job)
            for nid, start, end, parent, _ in (rec.spans[i] for i in picked)]


def job_metrics(rec, job):
    """Per-layer metrics of one traced job (everything but the byte counts
    and trace overhead, which the benchmark measures itself)."""
    spans = job_spans(rec, job)
    names = rec.names
    own = self_times(spans)
    layer_of = resolved_layers(spans, rec.layers)
    m = Counter()
    for idx, (nid, start, end, _, _) in enumerate(spans):
        name, layer = names[nid], layer_of[idx]

        def under(wanted):
            parent = spans[idx][3]
            while parent != ROOT:
                if names[spans[parent][0]] in wanted:
                    return True
                parent = spans[parent][3]
            return False

        if name == EIGVALSH:
            if under(KERNEL_CONSTRUCTORS):
                m["kernel.psd_s"] += end - start
                m["kernel.psd_calls"] += 1
            if under({"portfolio.optimize_portfolio"}):
                m["portfolio.eig_calls"] += 1
        elif name in LU:
            if layer == "solver":
                m["solver.lu_s"] += end - start
                m["solver.lu_calls"] += 1
        else:
            add_span_metric(m, name, layer, own[idx], under)
        if layer == "cli":
            m["cli.self_s"] += own[idx]
    clearances = []
    for obs_job, _, values in rec.observed:
        if obs_job != job:
            continue
        if "iterations" in values:
            m["solver.iterations"] += values["iterations"]
            m["solver.support"] = max(m["solver.support"], values["support"])
        if "kernel_n" in values:
            m["kernel.n"] = max(m["kernel.n"], values["kernel_n"])
            m["kernel.gram_mb"] = m["kernel.n"] ** 2 * 8 / 1e6
        if "path_points" in values:
            m["maze.path_points"] += values["path_points"]
            clearances.append(values["clearance"])
    if clearances:
        m["maze.clearance_min"] = min(clearances)
    m["solver.failures"] = sum(1 for j, layer, _ in rec.failures
                               if j == job and layer == "solver")
    return m


def add_span_metric(m, name, layer, self_s, under):
    """Add one layer span's self time (and count) to its metric; under(names)
    tells whether one of the named spans encloses it."""
    fn = name.rsplit(".", 1)[-1]
    if layer == "formats":
        m["formats.read_s" if fn.startswith("read_") else "formats.write_s"] += self_s
    elif layer == "kernel":
        if name in KERNEL_CONSTRUCTORS:
            m["kernel.build_s"] += self_s
        elif fn == "duplicate_groups":
            m["kernel.dedup_s"] += self_s
            m["kernel.dedup_calls"] += 1
        elif fn == "embed_distance" and under({"diagnostics.jc_report"}):
            m["diagnostics.jc_pairs"] += 1
    elif layer == "solver":
        m["solver.solve_s"] += self_s
    elif layer in ("objective", "measure"):
        m[layer + ".calls"] += 1
        m[layer + ".s"] += self_s
    elif layer == "diagnostics":
        key = {"capm_report": "capm_s", "jc_report": "jc_s", "sml_points": "sml_s"}.get(fn)
        if key:
            m["diagnostics." + key] += self_s
    elif layer == "portfolio":
        m["portfolio.ingest_s" if fn == "ingest_returns" else "portfolio.optimize_s"] += self_s
    elif layer == "maze":
        if fn in ("potential_field", "conjugate_field"):
            m["maze.field_s"] += self_s
        elif fn == "trace_path":
            m["maze.trace_s"] += self_s
        else:
            m["maze.solve_s"] += self_s


def medians(per_job):
    """Median of each metric over a list of per-job metric Counters."""
    keys = sorted(set().union(*per_job)) if per_job else []
    return {key: statistics.median(job.get(key, 0) for job in per_job) for key in keys}
