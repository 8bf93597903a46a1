"""Spans around the entry points of each tmems layer, and the per-layer
metrics computed from them.

The program is not edited: ``install`` replaces each entry point with a
wrapper, in every ``tmems`` module that holds the function by name and on
the class for methods. A span records its name, thread, start, end, parent
(the innermost open span of the same thread) and a few attributes read from
the call's arguments or result. Self time is a span's duration minus that of
its direct children, so sums of self times stay right when ``--jobs`` runs
designs on worker threads.
"""

import functools
import itertools
import statistics
import sys
import threading
import time

# An attribute reader gets (args, kwargs, result) and returns a small dict.


def _steer_attrs(args, kwargs, result):
    engine, weights = args[0], args[1]
    n_cells = weights.shape[0]
    return {"d": int(engine.n_visible), "n": int(n_cells), "k": int(weights.size // n_cells)}


def _pattern_attrs(args, kwargs, result):
    return {"nodes": int(args[0].n_visible)}


def _batch_attrs(args, kwargs, result):
    return {"batch": int(args[1].shape[0])}


def _minimize_attrs(args, kwargs, result):
    history = result.history
    last_gain = 0
    for i in range(1, len(history)):
        if history[i] < history[i - 1]:
            last_gain = i
    return {"iterations": int(result.iterations), "phi": float(result.best_value),
            "idle": int(len(history) - 1 - last_gain), "stop": result.stop_reason}


def _ratio_attrs(args, kwargs, result):
    return {"xi": float(result.xi)}


def _path_attrs(args, kwargs, result):
    return {"path": str(args[0])}


# (span name, module, qualified name, attribute reader); the module is the layer
ENTRY_POINTS = (
    ("load_config", "tmems.config", "load_config", None),
    ("apply_overrides", "tmems.config", "apply_overrides", None),
    ("scenario", "tmems.config", "RunConfig.scenario", None),
    ("pulse_fourier_coefficients", "tmems.modulation",
     "pulse_fourier_coefficients", None),
    ("harmonic_scalar_coefficients", "tmems.modulation",
     "harmonic_scalar_coefficients", None),
    ("steer", "tmems.fields", "FieldEngine._apply_steering", _steer_attrs),
    ("pattern", "tmems.fields", "FieldEngine.pattern", _pattern_attrs),
    ("field_at", "tmems.fields", "FieldEngine.field_at", None),
    ("build_masks", "tmems.masks", "build_masks", None),
    ("beam_reference", "tmems.masks", "beam_reference", None),
    ("phi_batch", "tmems.synthesis", "CostEvaluator.phi_batch", _batch_attrs),
    ("decode_batch", "tmems.synthesis", "ModeCodec.decode_batch", None),
    ("minimize", "tmems.synthesis", "minimize", _minimize_attrs),
    ("pso_optimize", "tmems.synthesis", "pso_optimize", None),
    ("evaluator", "tmems.isac", "Scenario.evaluator", None),
    ("design_for_angle", "tmems.isac", "design_for_angle", None),
    ("measure_bs_ratio", "tmems.isac", "measure_bs_ratio", _ratio_attrs),
    ("write_codebook", "tmems.codebook", "write_codebook", _path_attrs),
    ("read_codebook", "tmems.codebook", "read_codebook", _path_attrs),
    ("write_pattern_csv", "tmems.export", "write_pattern_csv", _path_attrs),
    ("write_schedule_csv", "tmems.export", "write_schedule_csv", _path_attrs),
    ("write_convergence_csv", "tmems.export", "write_convergence_csv", _path_attrs),
    ("write_sweep_csv", "tmems.export", "write_sweep_csv", _path_attrs),
    ("write_json", "tmems.export", "write_json", _path_attrs),
    ("read_schedule_csv", "tmems.export", "read_schedule_csv", _path_attrs),
    ("main", "tmems.cli", "main", None),
)


class Tracer:
    """Collects spans from every thread; append and next() are atomic under
    the interpreter lock, so no lock is needed on the hot path."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, fn, name, attrs=None):
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            done = False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                extra = attrs(args, kwargs, result) if attrs and done else None
                spans.append((sid, parent, threading.get_ident(), name, t0, t1, extra))

        return traced


def _resolve(module_name, qualname):
    obj = sys.modules.get(module_name)
    owner = None
    for part in qualname.split("."):
        owner, obj = obj, getattr(obj, part, None)
        if obj is None:
            return None, None
    return owner, obj


def patch_everywhere(fn, replacement, owner):
    """Replace fn on its class, or in every tmems module holding it by name."""
    if isinstance(owner, type):
        setattr(owner, fn.__name__, replacement)
        return
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "tmems" or mod_name.startswith("tmems.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, attr, replacement)


def install(tracer):
    """Wrap every entry point; returns the names that could not be found."""
    import tmems.cli  # noqa: F401  (loads every layer module)

    missing = []
    for name, module_name, qualname, attrs in ENTRY_POINTS:
        owner, fn = _resolve(module_name, qualname)
        if fn is None:
            missing.append(f"{module_name}.{qualname}")
            continue
        patch_everywhere(fn, tracer.wrap(fn, name, attrs), owner)
    return missing


def install_cost_counter():
    """Record the batch size of every cost evaluation without timing
    anything; the returned list sums to the schedules scored. Appending is
    atomic, so worker threads lose no count."""
    import tmems.cli  # noqa: F401

    owner, fn = _resolve("tmems.synthesis", "CostEvaluator.phi_batch")
    if fn is None:
        raise RuntimeError("tmems.synthesis.CostEvaluator.phi_batch not found")
    batches = []

    @functools.wraps(fn)
    def counted(self, rises, *args, **kwargs):
        batches.append(rises.shape[0])
        return fn(self, rises, *args, **kwargs)

    patch_everywhere(fn, counted, owner)
    return batches


# ---------------------------------------------------------------- analysis


class SpanSet:
    def __init__(self, rows):
        self.rows = [tuple(r) for r in rows]
        self.by_id = {r[0]: r for r in self.rows}
        child_time = {}
        for sid, parent, _tid, _name, t0, t1, _a in self.rows:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        self.self_time = {r[0]: (r[5] - r[4]) - child_time.get(r[0], 0.0) for r in self.rows}

    def named(self, *names):
        return [r for r in self.rows if r[3] in names]

    def outermost(self, *names):
        """Spans of the given names with no ancestor of those names, so that
        a nested call of the same layer is not counted twice."""
        out = []
        for r in self.named(*names):
            parent = r[1]
            while parent is not None and self.by_id[parent][3] not in names:
                parent = self.by_id[parent][1]
            if parent is None:
                out.append(r)
        return out

    @staticmethod
    def total(rows):
        return sum(r[5] - r[4] for r in rows)

    def self_total(self, rows):
        return sum(self.self_time[r[0]] for r in rows)


def _percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(cli_spans, warm_spans, jobs, file_stats):
    """Per-layer metrics of one traced CLI command plus its traced warm probes.

    file_stats maps a path to (bytes, data rows) for files the command wrote
    or read; it is filled by the caller after the processes have exited, so
    no file is read inside a timed span. Under --jobs, cli.self_s includes
    the main thread's wait for the worker threads.
    """
    # span ids restart in every process; move the warm ones past the CLI's
    shift = 1 + max((r[0] for r in cli_spans), default=0)
    warm_spans = [(r[0] + shift, None if r[1] is None else r[1] + shift, *r[2:])
                  for r in warm_spans]
    s = SpanSet(cli_spans + warm_spans)
    cli = SpanSet(cli_spans)
    m = {}
    m["config.load_s"] = s.total(s.outermost("load_config", "apply_overrides", "scenario"))

    coef = s.outermost("pulse_fourier_coefficients", "harmonic_scalar_coefficients")
    m["modulation.coef_s"] = s.total(coef)
    m["modulation.coef_calls"] = len(coef)

    steer = s.named("steer")
    steer_s = s.total(steer)
    flops = sum(8.0 * r[6]["d"] * r[6]["n"] * r[6]["k"] for r in steer if r[6])
    m["fields.steer_s"] = steer_s
    m["fields.steer_calls"] = len(steer)
    m["fields.steer_gflops"] = flops / steer_s / 1e9 if steer_s > 0 else 0.0
    m["fields.steer_mb"] = (statistics.fmean(16.0 * r[6]["d"] * r[6]["n"] for r in steer if r[6])
                            / 1e6 if steer else 0.0)
    pattern = s.named("pattern")
    m["fields.pattern_s"] = s.total(pattern)
    m["fields.pattern_nodes"] = sum(r[6]["nodes"] for r in pattern if r[6])
    field_at = s.named("field_at")
    m["fields.field_at_s"] = s.total(field_at)
    m["fields.field_at_calls"] = len(field_at)

    build = s.named("build_masks")
    beam_ref = s.named("beam_reference")
    m["masks.build_s"] = s.total(build)
    m["masks.build_calls"] = len(build)
    m["masks.beam_ref_s"] = s.total(beam_ref)
    m["masks.beam_ref_calls"] = len(beam_ref)

    phi = s.named("phi_batch")
    mins = [r for r in s.named("minimize") if r[6]]
    phi_ms = [1e3 * (r[5] - r[4]) for r in phi]
    m["synthesis.cost_evals"] = sum(r[6]["batch"] for r in phi if r[6])
    m["synthesis.iterations"] = sum(r[6]["iterations"] for r in mins)
    m["synthesis.final_phi"] = min((r[6]["phi"] for r in mins), default=0.0)
    m["synthesis.idle_iters"] = sum(r[6]["idle"] for r in mins)
    m["synthesis.phi_batch_s"] = s.total(phi)
    m["synthesis.phi_batch_p50_ms"] = statistics.median(phi_ms) if phi_ms else 0.0
    m["synthesis.phi_batch_p99_ms"] = _percentile(phi_ms, 0.99)
    m["synthesis.mask_sum_s"] = s.self_total(phi)
    m["synthesis.pso_self_s"] = s.self_total(mins)
    m["synthesis.decode_s"] = s.total(s.named("decode_batch"))

    designs = s.named("pso_optimize")
    m["isac.designs"] = len(designs)
    m["isac.design_p50_s"] = statistics.median([r[5] - r[4] for r in designs]) if designs else 0.0
    m["isac.evaluator_s"] = s.total(s.named("evaluator"))
    m["isac.ratio_s"] = s.total(s.outermost("measure_bs_ratio"))
    m["isac.xi"] = max((r[6]["xi"] for r in cli.named("measure_bs_ratio") if r[6]), default=0.0)
    # a pool item is one design_for_angle call when the command has them
    units = cli.named("design_for_angle") or cli.named("pso_optimize")
    if units:
        phase = max(r[5] for r in units) - min(r[4] for r in units)
        m["isac.parallel_eff"] = cli.total(units) / (jobs * phase) if phase > 0 else 0.0
    else:
        m["isac.parallel_eff"] = 0.0

    def io(names):
        rows = s.named(*names)
        return rows, sum(file_stats.get(r[6]["path"], (0, 0))[0] for r in rows if r[6])

    cb_w, cb_w_bytes = io(("write_codebook",))
    cb_r, cb_r_bytes = io(("read_codebook",))
    m["codebook.write_s"] = s.total(cb_w)
    m["codebook.read_s"] = s.total(cb_r)
    m["codebook.bytes"] = cb_w_bytes + cb_r_bytes
    writers = ("write_pattern_csv", "write_schedule_csv", "write_convergence_csv",
               "write_sweep_csv", "write_json")
    ex_w, ex_w_bytes = io(writers)
    ex_r, ex_r_bytes = io(("read_schedule_csv",))
    m["export.write_s"] = s.total(ex_w)
    m["export.read_s"] = s.total(ex_r)
    m["export.rows"] = sum(file_stats.get(r[6]["path"], (0, 0))[1]
                           for r in ex_w + ex_r if r[6])
    m["export.bytes"] = ex_w_bytes + ex_r_bytes

    m["cli.self_s"] = cli.self_total(cli.named("main"))
    return m


def main_thread_time(cli_spans):
    """Sum of self times over the spans on the thread that ran the CLI; under
    --jobs the worker threads' time shows in isac.parallel_eff instead."""
    s = SpanSet(cli_spans)
    main = [r for r in s.rows if r[3] == "main"]
    if not main:
        return 0.0
    return sum(s.self_time[r[0]] for r in s.rows if r[2] == main[0][2])
