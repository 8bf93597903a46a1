"""One measured process of the benchmark; run.py starts it fresh each time.

    python3 perfbench/child.py '<json spec>'

Modes:
  setup  import tmems and resolve the workload's config, nothing else
  cli    run one tmems CLI command (as the ``tmems`` script does), counting
         cost evaluations; with "trace" every layer entry point gets a span
  warm   time repeated warm probes from stored designs in one process

Every mode writes a JSON stats file: peak RSS, counters, samples and, when
traced, the spans.
"""

import json
import resource
import sys
import time

import tracing


def _resolve_config(spec):
    from tmems.config import apply_overrides, load_config

    cfg = apply_overrides(load_config(spec["config"]), seed=spec["seed"],
                          eval_grid_n=spec.get("grid"))
    return cfg, cfg.scenario()


def run_setup(spec, stats):
    import tmems  # noqa: F401

    _resolve_config(spec)


def run_cli(spec, stats):
    batches = None if spec.get("trace") else tracing.install_cost_counter()
    import tmems.cli

    stats["exit"] = tmems.cli.main(spec["argv"])
    if batches is not None:
        stats["cost_evals"] = int(sum(batches))


def _warm_localize(spec, cfg, scenario):
    from tmems import codebook, isac

    def probe():
        digest = isac.codebook_digest(scenario, cfg.seed, cfg.repeats)
        book = codebook.read_codebook(spec["codebook"], expected_digest=digest)
        res = isac.localize(scenario, cfg.candidates_deg, cfg.seed, repeats=cfg.repeats,
                            codebook=book, noise_power=cfg.noise_power)
        return {"xi": [s.xi for s in res.samples], "estimate_deg": res.estimate_deg}

    return probe


def _warm_schedule(spec, cfg, scenario):
    from tmems import export, isac

    def probe():
        schedule = export.read_schedule_csv(spec["schedule"])
        ratio = isac.measure_bs_ratio(scenario, schedule, noise_power=cfg.noise_power)
        return {"xi": [ratio.xi]}

    return probe


def run_warm(spec, stats):
    cfg, scenario = _resolve_config(spec)
    make = _warm_localize if spec["kind"] == "localize" else _warm_schedule
    probe = make(spec, cfg, scenario)
    first = probe()  # caches fill and lazy set-up finishes before timing
    probe()
    times_ms = []
    differ = 0
    deadline = time.perf_counter() + spec["seconds"]
    while len(times_ms) < spec["min_calls"] or (
            time.perf_counter() < deadline and len(times_ms) < spec["max_calls"]):
        t0 = time.perf_counter()
        out = probe()
        times_ms.append(1e3 * (time.perf_counter() - t0))
        differ += out != first
    stats.update(first=first, times_ms=times_ms, results_differ=differ)


MODES = {"setup": run_setup, "cli": run_cli, "warm": run_warm}


def main():
    spec = json.loads(sys.argv[1])
    stats = {}
    tracer = None
    if spec.get("trace"):
        import tmems.cli  # noqa: F401  (importing is set-up, not tracing cost)

        t0 = time.perf_counter()
        tracer = tracing.Tracer()
        stats["missing"] = tracing.install(tracer)
        stats["install_s"] = time.perf_counter() - t0
    MODES[spec["mode"]](spec, stats)
    stats["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    text = None
    if tracer is not None:
        t0 = time.perf_counter()
        spans = json.dumps(tracer.spans)
        stats["dump_s"] = time.perf_counter() - t0  # the tracer's own cost
        text = json.dumps(stats)[:-1] + ', "spans": ' + spans + "}"
    with open(spec["stats"], "w", encoding="utf-8") as fh:
        fh.write(text or json.dumps(stats))
    return stats.get("exit", 0)


if __name__ == "__main__":
    sys.exit(main())
