"""The benchmark's workloads, the inputs drawn from a seed, and the
correctness bands every run is checked against.

Bands come from the acceptance criteria and are never looser:
  beam-pair     criterion 04: phi / phi_all_on < 1e-2, the h=1 null at the
                base station >= 25 dB below the larger h=1 lobe, xi > 10
  localize      criterion 08: estimate 40 deg, margin >= 2, warm probes from
                the codebook identical to the cold samples
  evaluate-fine the per-cell direct radiation sum of criterion 04 agrees with
                the pattern CSV rows within 1e-10 at a few grid nodes

BENCHMARK.json lists beam-pair and localize only. evaluate-fine (a seeded
schedule re-evaluated on a 401 grid, no PSO) runs by hand with
``run.py --workload evaluate-fine``: within the benchmark's time limit, a
third workload would shorten every run below the length that keeps runs of
the same code steady on a shared 2-core host.
"""

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional


@dataclass(frozen=True)
class Workload:
    """One workload; why each was chosen is in BENCHMARK.json."""

    name: str
    command: str
    config: str  # relative to the checkout root
    parallel: bool  # designs spread over --jobs nproc threads
    grid: Optional[int] = None


WORKLOADS = {w.name: w for w in (
    Workload("beam-pair", "synthesize", "configs/beam-pair.yaml", parallel=False),
    Workload("localize", "localize", "perfbench/configs/localize.yaml", parallel=True),
    Workload("evaluate-fine", "evaluate", "configs/beam-pair.yaml", parallel=False, grid=401),
)}

# outputs that must be byte-identical for a given config and seed
DIGEST_FILES = ("schedule.csv", "convergence.csv", "pattern_h0.csv", "pattern_h1.csv",
                "localization.csv", "summary.json")


class Paths:
    """Where one run keeps its files, all under the checkout."""

    def __init__(self, root: Path, workload: Workload, seed: int):
        self.root = root
        self.work = root / ".perfbench-work" / f"{workload.name}-seed{seed}"
        self.out = self.work / "out"
        self.codebook = self.work / "codebook.bin"
        self.schedule = self.work / "input-schedule.csv"

    def rel(self, path: Path) -> str:
        return str(path.relative_to(self.root))


def cli_argv(workload: Workload, paths: Paths, seed: int, jobs: int) -> list:
    argv = [workload.command, "--config", workload.config, "--seed", str(seed),
            "--out", paths.rel(paths.out), "--jobs", str(jobs)]
    if workload.grid is not None:
        argv += ["--grid", str(workload.grid)]
    if workload.command == "evaluate":
        argv += ["--schedule", paths.rel(paths.schedule)]
    if workload.command == "localize":
        argv += ["--codebook", paths.rel(paths.codebook)]
    return argv


def write_seeded_schedule(path: Path, seed: int, period_s: float, rows: int, cols: int) -> None:
    """A uniformly random schedule in the format of export.write_schedule_csv."""
    import numpy as np

    rng = np.random.default_rng(seed)
    rise = rng.random((rows, cols))
    duty = rng.random((rows, cols))
    lines = [f"# rows: {rows}", f"# cols: {cols}", f"# period_s: {period_s:.17g}",
             "p,q,rise,duty"]
    for i in range(rows):
        for j in range(cols):
            lines.append(f"{i + 1},{j + 1},{rise[i, j]:.17g},{duty[i, j]:.17g}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def digests(paths: Paths) -> dict:
    """SHA-256 of every byte-reproducible output; summary.json without its
    wall time."""
    out = {}
    for name in DIGEST_FILES:
        path = paths.out / name
        if not path.exists():
            continue
        data = path.read_bytes()
        if name == "summary.json":
            summary = json.loads(data)
            summary.pop("wall_time_s", None)
            data = json.dumps(summary, sort_keys=True).encode()
        out[name] = hashlib.sha256(data).hexdigest()
    if paths.codebook.exists():
        out["codebook.bin"] = hashlib.sha256(paths.codebook.read_bytes()).hexdigest()
    return out


def file_stats(path: str, root: Path) -> tuple:
    """(bytes, data rows) of a file the program wrote or read; rows count CSV
    lines that are neither comments nor the column header."""
    p = root / path
    if not p.exists():
        return 0, 0
    size = p.stat().st_size
    if p.suffix != ".csv":
        return size, 0
    with open(p, "rb") as fh:
        lines = sum(1 for line in fh if not line.startswith(b"#"))
    return size, max(lines - 1, 0)


def _direct_field_sum(geometry, schedule, states, incidence, u, v, h):
    """Per-cell loop over the radiation sum, as in criterion 04."""
    import numpy as np
    from tmems import cell_factor, harmonic_tensors

    tens = harmonic_tensors(states, schedule, h).reshape(-1, 2, 2)
    m2 = incidence.polarization_matrix
    jones = np.asarray(incidence.jones, dtype=complex)
    xy = geometry.cell_xy_m
    k0 = geometry.k0
    acc = np.zeros(2, dtype=complex)
    for n in range(xy.shape[0]):
        drive = incidence.amplitude_v_m * np.exp(
            1j * k0 * (incidence.u * xy[n, 0] + incidence.v * xy[n, 1]))
        steer = np.exp(1j * k0 * (u * xy[n, 0] + v * xy[n, 1]))
        acc = acc + steer * drive * (m2 @ (tens[n] @ jones))
    return 1j * k0 / (4.0 * np.pi) * cell_factor(geometry, u, v) * acc


def _pattern_power(path: Path):
    import numpy as np

    # columns u, v, visible, power_linear, power_db; "u," marks the header
    return np.loadtxt(path, delimiter=",", comments=("#", "u,"))


class Checker:
    """Checks one workload's outputs against its band (limits above); the
    measured band values go into the run record."""

    def __init__(self, workload: Workload, paths: Paths, seed: int):
        from tmems.config import apply_overrides, load_config

        self.workload = workload
        self.paths = paths
        self.seed = seed
        cfg = apply_overrides(load_config(str(paths.root / workload.config)), seed=seed,
                              eval_grid_n=workload.grid)
        self.scenario = cfg.scenario()

    def phi_all_on(self):
        import numpy as np
        from tmems import PulseSchedule

        g = self.scenario.geometry
        all_on = PulseSchedule(period_s=self.scenario.period_s,
                               rise=np.zeros((g.rows, g.cols)), duty=np.ones((g.rows, g.cols)))
        return self.scenario.evaluator().phi(all_on)

    def summary(self):
        return json.loads((self.paths.out / "summary.json").read_text(encoding="utf-8"))

    def check(self) -> dict:
        """Band values of the current outputs with an overall "ok"."""
        name = self.workload.name
        if name == "beam-pair":
            return self._check_design()
        if name == "localize":
            res = self.summary()["results"]
            ok = res["estimate_deg"] == 40.0 and res["margin"] >= 2.0
            return {"ok": ok, "estimate_deg": res["estimate_deg"], "margin": res["margin"]}
        return self._check_evaluate()

    def _check_design(self):
        res = self.summary()["results"]
        phi_ratio = res["phi"] / self.phi_all_on()
        table = _pattern_power(self.paths.out / "pattern_h1.csv")
        p_lobe = float(table[table[:, 2] == 1.0, 3].max())
        depth = 10.0 * math.log10(p_lobe / max(res["p_delta"], 1e-300))
        ok = phi_ratio < 1e-2 and res["xi"] > 10.0 and depth >= 25.0
        return {"ok": bool(ok), "phi_ratio": phi_ratio, "xi": res["xi"], "null_depth_db": depth}

    def _check_evaluate(self):
        import numpy as np
        from tmems.export import read_schedule_csv

        sc = self.scenario
        schedule = read_schedule_csv(self.paths.schedule)
        inc = sc.incidence()
        rng = np.random.default_rng(self.seed)
        worst = 0.0
        for h in (0, 1):
            table = _pattern_power(self.paths.out / f"pattern_h{h}.csv")
            visible = np.nonzero(table[:, 2] == 1.0)[0]
            rows = [int(np.argmax(table[:, 3]))] + list(rng.choice(visible, 3, replace=False))
            for r in rows:
                u, v, _vis, p_csv = table[r, :4]
                e = _direct_field_sum(sc.geometry, schedule, sc.states, inc, u, v, h)
                p_direct = float(np.sum(np.abs(e) ** 2))
                worst = max(worst, abs(p_csv - p_direct) / p_direct)
        return {"ok": bool(worst <= 1e-10), "direct_sum_rel": float(worst)}

    def cold_xi(self) -> list:
        summary = self.summary()
        if "samples" in summary:
            return [s["xi"] for s in summary["samples"]]
        return [summary["results"]["xi"]]
