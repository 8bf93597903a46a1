"""Benchmark of the tmems toolkit: user runs, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; it imports the program from ``src/``. The
workloads are in workloads.py.

Every measured command runs in a fresh process (child.py). With --trace 0
the run repeats the workload's CLI command for S seconds, with a fresh
process that only imports tmems and resolves the config (setup_s) after each
command, and reports the medians of the commands' wall time, peak RSS and
cost evaluations per second, and of the set-up times; the sample count and
tail of every timing go into the record line. With
--trace 1 it alternates untraced and traced commands, where every layer's
entry points are wrapped from outside the program, and reports per-layer
metrics, what tracing costs, and the latency of warm probes from the stored
designs: for localize, reading the codebook and probing every candidate. No
command starts that would end after the S seconds, judging by the previous
one, so a run measures for at most S seconds plus its first command.

Each run checks the outputs against the workload's acceptance band (see
workloads.py), requires byte-identical outputs across its repeats, traced
or not, and prints a record line (seed, environment, counters, digests,
band values) before the result line: one JSON object with keys correct,
attempted, failed and metrics. An operation is one CLI command or one warm
probe; it fails when its process exits non-zero, its output misses the band
or differs from the first repeat's.

Thread budget: every process gets one BLAS thread, and designs of
``localize`` run on --jobs nproc threads while every other workload runs
--jobs 1, so jobs x BLAS threads never exceeds nproc. On a 2-core VM a
second BLAS thread gave no clear gain in wall time at 1.5-1.9x the CPU
time, which made the times depend more on whatever else the host ran.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170  # every process this run starts has ended by then
WARM_SECONDS = 1.0
WARM_MIN_CALLS = 20
WARM_MAX_CALLS = 2000
TRACED_WARM_CALLS = 5
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ChildFailed(Exception):
    pass


def tail_percentile(values):
    """Highest of p99/p90/p50 with at least ten samples beyond it."""
    ordered = sorted(values)
    for q in (0.99, 0.9, 0.5):
        if len(ordered) * (1.0 - q) >= 10:
            return f"p{int(q * 100)}", ordered[int(q * len(ordered))]
    return "max", ordered[-1]


def summarize(values, unit):
    """Sample count, median and tail of one run's samples."""
    tail, value = tail_percentile(values)
    return {"n": len(values), "median" + unit: statistics.median(values), tail + unit: value}


def environment(nproc, jobs, blas_threads):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": nproc, "jobs": jobs, "blas_threads": blas_threads,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "numpy": numpy.__version__, "python": platform.python_version(),
            "machine": platform.machine()}


class Run:
    def __init__(self, workload, seed, seconds, trace):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.t_start = time.perf_counter()
        self.paths = workloads.Paths(ROOT, workload, seed)
        nproc = len(os.sched_getaffinity(0))
        self.jobs = nproc if workload.parallel else 1
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.update({var: "1" for var in BLAS_VARS})
        self.record = {"workload": workload.name, "seed": seed, "seconds": seconds,
                       "trace": int(trace), "env": environment(nproc, self.jobs, 1)}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first_digests = None
        self.checker = None

    # ---------------------------------------------------------- processes

    def spawn(self, mode, **spec):
        stats_path = self.paths.work / f"{mode}-stats.json"
        stats_path.unlink(missing_ok=True)
        spec.update(mode=mode, stats=str(stats_path), config=self.workload.config,
                    seed=self.seed, grid=self.workload.grid)
        t0 = time.perf_counter()
        timeout = RUN_LIMIT_S - (t0 - self.t_start)
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                                  cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=max(timeout, 0.1))
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{mode} still running {RUN_LIMIT_S} s into the run") from exc
        wall = time.perf_counter() - t0
        if proc.returncode != 0 or not stats_path.exists():
            raise ChildFailed(f"{mode} exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
        return wall, json.loads(stats_path.read_text(encoding="utf-8"))

    def fail(self, count, why):
        self.failed += count
        self.problems.append(why)

    # ------------------------------------------------------------- phases

    def prepare(self):
        shutil.rmtree(self.paths.work, ignore_errors=True)
        self.paths.work.mkdir(parents=True)
        self.checker = workloads.Checker(self.workload, self.paths, self.seed)
        if self.workload.command == "evaluate":
            g = self.checker.scenario.geometry
            workloads.write_seeded_schedule(self.paths.schedule, self.seed,
                                            self.checker.scenario.period_s, g.rows, g.cols)

    def setup_times(self, runs):
        return [self.spawn("setup")[0] for _ in range(runs)]

    def cli_rep(self, traced):
        """One CLI command from a clean output directory; None if it failed."""
        shutil.rmtree(self.paths.out, ignore_errors=True)
        self.paths.codebook.unlink(missing_ok=True)
        argv = workloads.cli_argv(self.workload, self.paths, self.seed, self.jobs)
        self.attempted += 1
        try:
            wall, stats = self.spawn("cli", argv=argv, trace=traced)
        except ChildFailed as exc:
            self.fail(1, str(exc))
            return None
        digests = workloads.digests(self.paths)
        if self.first_digests is None:
            self.first_digests = digests
            band = self.checker.check()
            self.record["band"] = band
            self.record["digests"] = digests
            self.record["counters"] = self.counters(stats)
            if not band["ok"]:
                self.fail(1, f"outputs miss the band: {band}")
        elif digests != self.first_digests:
            self.fail(1, f"outputs differ from the first repeat (traced={traced})")
        if traced:
            stats["files"] = self.file_stats(stats["spans"])
        return wall, stats

    def counters(self, stats):
        summary = self.checker.summary()
        keep = ("phi", "iterations", "stop_reason", "xi", "estimate_deg", "margin", "best_xi")
        out = {k: v for k, v in summary.get("results", {}).items() if k in keep}
        if "cost_evals" in stats:
            out["cost_evals"] = stats["cost_evals"]
        return out

    def file_stats(self, spans):
        paths = {s[6]["path"] for s in spans if s[6] and "path" in s[6]}
        return {p: workloads.file_stats(p, ROOT) for p in paths}

    def warm(self, traced):
        """Warm probes from the last command's stored designs."""
        kind = "localize" if self.workload.command == "localize" else "schedule"
        schedule = (self.paths.schedule if self.workload.command == "evaluate"
                    else self.paths.out / "schedule.csv")
        calls = (TRACED_WARM_CALLS, TRACED_WARM_CALLS, 0.0) if traced else (
            WARM_MIN_CALLS, WARM_MAX_CALLS, WARM_SECONDS)
        try:
            _wall, stats = self.spawn(
                "warm", trace=traced, kind=kind, codebook=self.paths.rel(self.paths.codebook),
                schedule=self.paths.rel(schedule), min_calls=calls[0], max_calls=calls[1],
                seconds=calls[2])
        except ChildFailed as exc:
            self.attempted += 1
            self.fail(1, str(exc))
            return None
        n = len(stats["times_ms"])
        self.attempted += n
        cold = self.checker.cold_xi()
        if stats["first"]["xi"] != cold:
            self.fail(n, f"warm xi {stats['first']['xi']} differ from cold {cold}")
        elif stats["first"].get("estimate_deg", 40.0) != 40.0:
            self.fail(n, f"warm estimate {stats['first']['estimate_deg']} is not 40 deg")
        elif stats["results_differ"]:
            self.fail(stats["results_differ"], "warm probes disagree with each other")
        if traced:
            stats["files"] = self.file_stats(stats["spans"])
        return stats

    # ------------------------------------------------------------ metrics

    def warm_record(self, warm):
        self.record["warm"] = summarize(warm["times_ms"], "_ms")

    def more_time(self, deadline, last_s):
        """Whether a step as long as the last one still ends by the deadline."""
        return time.perf_counter() + last_s <= deadline

    def end_to_end(self):
        """Repeat (command, one more setup process) for the run's seconds, so
        that setup samples spread over the run like the commands do; then
        check the warm probes against the cold outputs."""
        setup = self.setup_times(2)
        reps = []
        deadline = time.perf_counter() + self.seconds
        last_s = 0.0
        while not reps or self.more_time(deadline, last_s):
            t0 = time.perf_counter()
            rep = self.cli_rep(traced=False)
            if rep is None:
                break
            reps.append(rep)
            setup += self.setup_times(1)
            last_s = time.perf_counter() - t0
        if not reps:
            return None
        warm = self.warm(traced=False)
        if warm is not None:
            self.warm_record(warm)
        setup_s = statistics.median(setup)
        walls = [w for w, _ in reps]
        rates = [s["cost_evals"] / (w - setup_s) for w, s in reps]
        rss = [s["peak_rss_mb"] for _, s in reps]
        self.record.update(setup=summarize(setup, "_s"), wall=summarize(walls, "_s"),
                           cost_evals_per_s=summarize(rates, ""),
                           setup_samples_s=setup, wall_samples_s=walls, rss_samples_mb=rss)
        return {
            "wall_s": statistics.median(walls),
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median(rss),
            "cost_evals_per_s": statistics.median(rates),
        }

    def per_layer(self):
        """Alternate untraced and traced commands for the run's seconds, then
        time warm probes untraced and run a few traced."""
        setup_s = statistics.median(self.setup_times(3))
        plain, traced = [], []
        deadline = time.perf_counter() + self.seconds
        last_s = 0.0
        while not traced or self.more_time(deadline, last_s):
            t0 = time.perf_counter()
            pair = [self.cli_rep(traced=False), self.cli_rep(traced=True)]
            if None in pair:
                break
            plain.append(pair[0])
            traced.append(pair[1])
            last_s = time.perf_counter() - t0
        if not traced:
            return None
        warm = self.warm(traced=False)
        traced_warm = self.warm(traced=True)
        if warm is None or traced_warm is None:
            return None
        self.warm_record(warm)
        layers = []
        shares = []
        for wall, stats in traced:
            files = dict(traced_warm["files"], **stats["files"])
            layers.append(tracing.layer_metrics(stats["spans"], traced_warm["spans"],
                                                self.jobs, files))
            attributed = (tracing.main_thread_time(stats["spans"])
                          + stats["install_s"] + stats["dump_s"])
            shares.append(attributed / (wall - setup_s))
            if stats["missing"]:
                self.problems.append(f"entry points not found: {stats['missing']}")
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        metrics["warm.probe_ms"] = self.record["warm"]["median_ms"]
        traced_wall = statistics.median(w for w, _ in traced)
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - statistics.median(w for w, _ in plain)
        metrics["trace.attributed_share"] = statistics.median(shares)
        self.record.update(setup_s=setup_s, traced_wall_samples_s=[w for w, _ in traced],
                           untraced_wall_samples_s=[w for w, _ in plain])
        return metrics


def load_metric_units(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "tmems" / "cli.py", ROOT / workload.config]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a tmems checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    units = load_metric_units(args.trace)
    sys.path.insert(0, str(ROOT / "src"))
    # the checks in this process must not compete with the measured children
    os.environ.update({var: "1" for var in BLAS_VARS})

    run = Run(workload, args.seed, args.seconds, bool(args.trace))
    metrics = None
    try:
        run.prepare()
        metrics = run.per_layer() if args.trace else run.end_to_end()
    except ChildFailed as exc:
        run.problems.append(str(exc))
    finally:
        shutil.rmtree(run.paths.work, ignore_errors=True)
        try:
            run.paths.work.parent.rmdir()
        except OSError:
            pass
    run.record["problems"] = run.problems
    print(json.dumps({"record": run.record}))
    if metrics is None or set(units) - set(metrics):
        absent = sorted(set(units) - set(metrics or {}))
        print(f"error: no result; missing metrics {absent}; problems: {run.problems}",
              file=sys.stderr)
        return 1
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
