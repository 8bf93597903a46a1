"""Text export formats and the command-line workflow, end to end."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from tmems.cli import main
from tmems.config import load_config, parse_config
from tmems.export import (
    DB_FLOOR,
    format_float,
    read_schedule_csv,
    write_convergence_csv,
    write_json,
    write_pattern_csv,
    write_schedule_csv,
    write_sweep_csv,
)
from tmems.fields import (
    DirectionGrid,
    FieldEngine,
    HarmonicPattern,
    PlaneWaveIncidence,
    power_db,
)
from tmems.geometry import EmsGeometry
from tmems.isac import SweepSample
from tmems.masks import beam_reference
from tmems.modulation import ReflectionStates

from conftest import random_schedule


def test_format_float_round_trips():
    for x in (0.1, 1.0 / 3.0, 1e-300, 6.02214076e23, -2.5e-10, 123456789.123456,
              float("inf"), -0.0):
        s = format_float(x)
        assert float(s) == x
    assert format_float(2.0) == "2"
    assert format_float(float("nan")) == "nan"


def test_pattern_csv(tmp_path, rng):
    geom = EmsGeometry(rows=2, cols=2)
    grid = DirectionGrid.uniform(3)
    sched = random_schedule(rng, 2, 2)
    pat = FieldEngine(geom, grid).pattern(sched, ReflectionStates.ideal(),
                                          PlaneWaveIncidence(theta_deg=0.0), 0)
    path = tmp_path / "pattern.csv"
    write_pattern_csv(path, pat, 1.0)
    lines = path.read_text().splitlines()
    assert lines[0] == "# harmonic: 0"
    assert lines[1].startswith("# omega_rad_s: ")
    assert lines[2] == "# reference_power: 1"
    assert lines[3] == "# db_floor: -400"
    assert lines[4] == "u,v,visible,power_linear,power_db"
    assert len(lines) == 5 + 9
    flags = [row.split(",")[2] for row in lines[5:]]
    assert flags.count("1") == int(np.count_nonzero(grid.visible))
    # invisible nodes carry zero power at the db floor
    first = lines[5].split(",")  # (u, v) = (-1, -1) is outside the disc
    assert first[2] == "0" and first[3] == "0" and first[4] == "-400"
    # re-export is byte-identical
    path2 = tmp_path / "pattern2.csv"
    write_pattern_csv(path2, pat, 1.0)
    assert path.read_bytes() == path2.read_bytes()


def per_value_pattern_csv(path, pattern, reference):
    """The original writer, one format_float call per value: the reference
    for the file format."""
    grid = pattern.grid
    power = pattern.power
    db = power_db(power, reference)
    vis = grid.visible
    lines = [
        f"# harmonic: {pattern.harmonic}",
        f"# omega_rad_s: {format_float(pattern.omega_rad_s)}",
        f"# reference_power: {format_float(reference)}",
        f"# db_floor: {format_float(DB_FLOOR)}",
        "u,v,visible,power_linear,power_db",
    ]
    for iu in range(grid.u.size):
        su = format_float(grid.u[iu])
        for iv in range(grid.v.size):
            lines.append(",".join((
                su,
                format_float(grid.v[iv]),
                "1" if vis[iu, iv] else "0",
                format_float(power[iu, iv]),
                format_float(db[iu, iv]),
            )))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def test_pattern_csv_matches_per_value_writer(tmp_path, rng):
    # a non-square grid, so a swapped u/v loop would change the bytes;
    # invisible nodes give exact zeros at the dB floor
    geom = EmsGeometry(rows=4, cols=6)
    grid = DirectionGrid(u=np.linspace(-1.0, 1.0, 23), v=np.linspace(-0.9, 1.0, 17))
    sched = random_schedule(rng, 4, 6)
    inc = PlaneWaveIncidence(theta_deg=30.0, phi_deg=10.0)
    for h, reference in ((0, 1.0), (1, 3.7e-5)):
        pat = FieldEngine(geom, grid).pattern(sched, ReflectionStates.ideal(), inc, h)
        fast, slow = tmp_path / f"fast{h}.csv", tmp_path / f"slow{h}.csv"
        write_pattern_csv(fast, pat, reference)
        per_value_pattern_csv(slow, pat, reference)
        assert fast.read_bytes() == slow.read_bytes()


def test_pattern_csv_fixed_text_only_for_invisible_zero_power(tmp_path, rng):
    # the writer prints an invisible node's zero power as fixed text; a
    # visible node of exactly zero power and an invisible one with power
    # must still print as the per-value writer prints them
    grid = DirectionGrid(u=np.linspace(-1.0, 1.0, 9), v=np.linspace(-1.0, 0.8, 7))
    field = rng.normal(size=grid.shape + (2, 2)) @ np.array([1.0, 1j])
    field[~grid.visible] = 0.0
    iu, iv = grid.nearest_index(0.0, 0.2)
    assert grid.visible[iu, iv] and not grid.visible[0, 0]
    field[iu, iv] = 0.0
    field[0, 0] = 1e-3
    pat = HarmonicPattern(harmonic=1, omega_rad_s=2.0, grid=grid, field=field)
    assert pat.power[iu, iv] == 0.0 and pat.power[0, 0] > 0.0
    for reference in (1.0, 3.7e-5, np.pi):
        fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
        write_pattern_csv(fast, pat, reference)
        per_value_pattern_csv(slow, pat, reference)
        assert fast.read_bytes() == slow.read_bytes()
    zero = ",".join(("0", format_float(power_db(0.0, np.pi))))
    lines = fast.read_text().splitlines()[5:]
    assert lines[0].split(",")[2:] == ["0", format_float(pat.power[0, 0]),
                                       format_float(power_db(pat.power[0, 0], np.pi))]
    assert lines[iu * grid.v.size + iv].endswith(",1," + zero)
    assert lines[1].endswith(",0," + zero)


def test_schedule_csv_round_trip(tmp_path, rng):
    sched = random_schedule(rng, 3, 4, period_s=2.5e-6)
    path = tmp_path / "schedule.csv"
    write_schedule_csv(path, sched)
    back = read_schedule_csv(path)
    assert back.period_s == sched.period_s
    assert np.array_equal(back.rise, sched.rise)
    assert np.array_equal(back.duty, sched.duty)
    lines = path.read_text().splitlines()
    assert lines[:4] == ["# rows: 3", "# cols: 4",
                         f"# period_s: {format_float(2.5e-6)}", "p,q,rise,duty"]
    assert len(lines) == 4 + 12


BAD_SCHEDULES = {
    "twice": "# rows: 2\n# cols: 1\n# period_s: 1e-06\np,q,rise,duty\n"
             "1,1,0.25,0.5\n2,1,0.25,0.5\n1,1,0.75,0.5\n",
    "empty": "# rows: 0\n# cols: 1\n# period_s: 1e-06\np,q,rise,duty\n",
    "three fields": "# rows: 1\n# cols: 1\n# period_s: 1e-06\np,q,rise,duty\n1,1,0.25\n",
    "bad duty": "# rows: 1\n# cols: 1\n# period_s: 1e-06\np,q,rise,duty\n1,1,0.25,abc\n",
    "bad rows": "# rows: x\n# cols: 1\n# period_s: 1e-06\np,q,rise,duty\n1,1,0.25,0.5\n",
    "no cols": "# rows: 1\n# cols: 0\n# period_s: 1e-06\np,q,rise,duty\n",
    "nan period": "# rows: 1\n# cols: 1\n# period_s: nan\np,q,rise,duty\n1,1,0.25,0.5\n",
    "inf period": "# rows: 1\n# cols: 1\n# period_s: inf\np,q,rise,duty\n1,1,0.25,0.5\n",
    "nan rise": "# rows: 1\n# cols: 1\n# period_s: 1e-06\np,q,rise,duty\n1,1,nan,0.5\n",
    "rise of 1": "# rows: 1\n# cols: 1\n# period_s: 1e-06\np,q,rise,duty\n1,1,1.0,0.5\n",
    "nan duty": "# rows: 1\n# cols: 1\n# period_s: 1e-06\np,q,rise,duty\n1,1,0.25,nan\n",
    "negative duty": "# rows: 1\n# cols: 1\n# period_s: 1e-06\np,q,rise,duty\n1,1,0.25,-0.5\n",
    "rows twice": "# rows: 1\n# cols: 1\n# rows: 2\n# period_s: 1e-06\np,q,rise,duty\n"
                  "1,1,0.25,0.5\n",
}

# the message each of BAD_SCHEDULES raises, naming the line (after the
# file's path) and the field where a line is malformed
BAD_SCHEDULE_MESSAGES = {
    "twice": ":7: cell (1, 1) is listed twice",
    "empty": ":1: rows 0 must be at least 1",
    "three fields": ":5: expected the 4 fields p,q,rise,duty, got 3",
    "bad duty": ":5: duty 'abc' is not a number",
    "bad rows": ":1: rows 'x' is not an integer",
    "no cols": ":2: cols 0 must be at least 1",
    "nan period": ":3: period_s nan must be positive and finite",
    "inf period": ":3: period_s inf must be positive and finite",
    "nan rise": ":5: rise nan must lie in [0, 1)",
    "rise of 1": ":5: rise 1.0 must lie in [0, 1)",
    "nan duty": ":5: duty nan must lie in [0, 1]",
    "negative duty": ":5: duty -0.5 must lie in [0, 1]",
    "rows twice": ":3: rows is declared again (first on line 1)",
}


def test_schedule_csv_read_errors(tmp_path):
    missing = tmp_path / "missing.csv"
    missing.write_text("# rows: 2\n# cols: 2\np,q,rise,duty\n1,1,0.0,0.5\n")
    with pytest.raises(ValueError, match="missing rows/cols/period_s"):
        read_schedule_csv(missing)
    short = tmp_path / "short.csv"
    short.write_text("# rows: 2\n# cols: 2\n# period_s: 1e-06\np,q,rise,duty\n"
                     "1,1,0.0,0.5\n1,2,0.1,0.5\n2,1,0.2,0.5\n")
    with pytest.raises(ValueError, match="holds 3 cells, expected 4"):
        read_schedule_csv(short)
    # the second (1, 1) row used to overwrite the first silently, and zero
    # rows used to load as an empty schedule
    for name, message in BAD_SCHEDULE_MESSAGES.items():
        path = tmp_path / f"{name}.csv"
        path.write_text(BAD_SCHEDULES[name])
        with pytest.raises(ValueError) as info:
            read_schedule_csv(path)
        assert message in str(info.value)
        if message.startswith(":"):
            assert str(info.value) == f"{path}{message}"


def test_cli_evaluate_reports_schedule_read_errors(tmp_path, cli_config, capsys):
    for name, message in BAD_SCHEDULE_MESSAGES.items():
        path = tmp_path / f"{name}.csv"
        path.write_text(BAD_SCHEDULES[name])
        assert main(["evaluate", "--config", cli_config, "--out", str(tmp_path / "x"),
                     "--schedule", str(path)]) == 2
        [err] = capsys.readouterr().err.splitlines()
        assert err.startswith("error: ") and message in err
        if message.startswith(":"):
            assert err == f"error: {path}{message}"


# 1-based cell indices outside the header's rows x cols; p=0 once wrapped to
# the last row and left a row of uninitialised memory
BAD_CELLS = [((0, 1), (2, 1)), ((1, 1), (3, 1)), ((1, 0), (2, 1)), ((1, 1), (2, 2))]


@pytest.mark.parametrize("cells", BAD_CELLS, ids=["p=0", "p>rows", "q=0", "q>cols"])
def test_schedule_csv_rejects_cells_outside_the_surface(tmp_path, cells):
    path = tmp_path / "cells.csv"
    body = "".join(f"{p},{q},0.25,0.5\n" for p, q in cells)
    path.write_text("# rows: 2\n# cols: 1\n# period_s: 1e-06\np,q,rise,duty\n" + body)
    with pytest.raises(ValueError, match="outside"):
        read_schedule_csv(path)


def test_cli_evaluate_rejects_cells_outside_the_surface(tmp_path, cli_config, capsys, rng):
    good = tmp_path / "good.csv"
    write_schedule_csv(good, random_schedule(rng, 6, 6))
    for label, replace in (("p=0", ("\n1,1,", "\n0,1,")), ("p>rows", ("\n6,6,", "\n7,6,"))):
        bad = tmp_path / f"bad-{label}.csv"
        bad.write_text(good.read_text().replace(*replace))
        assert main(["evaluate", "--config", cli_config, "--out", str(tmp_path / "x"),
                     "--schedule", str(bad)]) == 2
        assert "outside" in capsys.readouterr().err


def test_convergence_csv(tmp_path):
    path = tmp_path / "conv.csv"
    write_convergence_csv(path, [3.5, 2.0, 2.0, 0.125])
    assert path.read_text() == ("iteration,best_cost\n0,3.5\n1,2\n2,2\n"
                                "3,0.125\n")


def test_sweep_csv_layout(tmp_path):
    samples = [
        SweepSample(angle_deg=-10.0, phi=0.5, xi=2.0, p_sigma=4.0, p_delta=2.0,
                    floored=False, iterations=5, stop_reason="max_iterations",
                    source="synthesized"),
        SweepSample(angle_deg=10.0, phi=0.25, xi=2.0, p_sigma=8.0, p_delta=4.0,
                    floored=True, iterations=7, stop_reason="stagnation",
                    source="codebook"),
    ]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, samples, "bs")
    assert path.read_text() == "\n".join([
        "# vary: bs",
        "kind,angle_deg,phi,xi,p_sigma,p_delta,floored,iterations,stop_reason,source",
        "sample,-10,0.5,2,4,2,0,5,max_iterations,synthesized",
        "sample,10,0.25,2,8,4,1,7,stagnation,codebook",
        # xi tie between -10 and 10 resolves to the smaller angle; the
        # iterations column totals the whole run
        "summary,-10,0.5,2,4,2,0,12,,argmax_xi",
    ]) + "\n"


def test_write_json_strict_and_sorted(tmp_path):
    path = tmp_path / "summary.json"
    write_json(path, {"b": np.float64(1.5), "a": float("inf"), "n": float("nan"),
                      "arr": np.arange(3), "flag": np.bool_(True), "i": np.int64(7),
                      "nested": {"z": [1.0, float("-inf")]}})
    text = path.read_text()
    assert text.endswith("\n") and '\n  "a": "inf",' in text
    loaded = json.loads(text)
    assert loaded == {"a": "inf", "arr": [0, 1, 2], "b": 1.5, "flag": True,
                      "i": 7, "n": "nan", "nested": {"z": [1.0, "-inf"]}}
    assert list(loaded) == sorted(loaded)


CLI_CONFIG = """\
surface:
  rows: 6
  cols: 6
modulation:
  mode: delta
incidence:
  theta_deg: 40
reflection:
  theta_deg: -20
synthesis:
  grid_n: 32
  swarm_size: 8
  iterations: 30
  seed: 7
  stagnation_window: 0
evaluation:
  grid_n: 41
sweep:
  angles_deg: [0, 20]
localization:
  candidates_deg: [20, 40]
  repeats: 1
"""


@pytest.fixture
def cli_config(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(CLI_CONFIG)
    return str(path)


def apex_offset(scenario):
    """Offset of the beam reference's carrier apex from the beam, read on a
    4,001-point scan of beam +- 0.2, and the scan's step."""
    ref = beam_reference(scenario.geometry, scenario.incidence(), scenario.bs_u,
                         scenario.states)
    us, step = np.linspace(scenario.bs_u - 0.2, scenario.bs_u + 0.2, 4001, retstep=True)
    return us[np.argmax(ref.power_at(us, np.zeros_like(us)))] - scenario.bs_u, step


@pytest.mark.parametrize("name", ["beam-pair", "localization", "user-sweep"])
def test_shipped_beam_references_peak_on_the_beam(name):
    path = Path(__file__).resolve().parents[1] / "configs" / f"{name}.yaml"
    offset, step = apex_offset(load_config(str(path)).scenario())
    assert abs(offset) <= step


@pytest.mark.xfail(strict=True, reason="no sign change among the 21 scanned steers: the "
                                       "reference apex lies at u -0.2423, the beam at -0.3420")
def test_small_aperture_beam_reference_peaks_on_the_beam():
    offset, step = apex_offset(parse_config(yaml.safe_load(CLI_CONFIG)).scenario())
    assert abs(offset) <= step


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="the specular floor of cross-polarised states rises across the scan "
                          "window: every scanned lobe peaks on its edge")
def test_small_aperture_calibrates_cross_polarised_states():
    cross = ReflectionStates(gamma_on=0.9 * np.array([[0.0, 1.0], [1.0, 0.0]]),
                             gamma_off=-0.8 * np.eye(2))
    scenario = parse_config(yaml.safe_load(CLI_CONFIG)).scenario()
    replace(scenario, states=cross).evaluator()


OUTPUTS = ("schedule.csv", "convergence.csv", "pattern_h0.csv", "pattern_h1.csv")


def test_cli_synthesize_and_evaluate(tmp_path, cli_config, capsys):
    out1, out2, out3 = (tmp_path / n for n in ("o1", "o2", "o3"))
    assert main(["synthesize", "--config", cli_config, "--out", str(out1)]) == 0
    assert capsys.readouterr().out.startswith("synthesize: phi=")
    for name in OUTPUTS + ("summary.json",):
        assert (out1 / name).exists()
    # reruns are byte-reproducible for everything except the timed summary
    assert main(["synthesize", "--config", cli_config, "--out", str(out2)]) == 0
    for name in OUTPUTS:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    summary1 = json.loads((out1 / "summary.json").read_text())
    assert summary1["config"]["synthesis"]["seed"] == 7
    assert summary1["results"]["iterations"] == 30
    # evaluating the stored schedule reproduces phi and the pattern files
    assert main(["evaluate", "--config", cli_config, "--out", str(out3),
                 "--schedule", str(out1 / "schedule.csv")]) == 0
    for name in ("pattern_h0.csv", "pattern_h1.csv"):
        assert (out3 / name).read_bytes() == (out1 / name).read_bytes()
    summary3 = json.loads((out3 / "summary.json").read_text())
    assert summary3["results"]["phi"] == pytest.approx(summary1["results"]["phi"],
                                                       rel=1e-9)
    assert summary3["results"]["xi"] == pytest.approx(summary1["results"]["xi"],
                                                      rel=1e-9)


def test_cli_overrides(tmp_path, cli_config):
    base, other, coarse, colwise = (tmp_path / n for n in ("b", "s8", "g21", "cw"))
    assert main(["synthesize", "--config", cli_config, "--out", str(base)]) == 0
    assert main(["synthesize", "--config", cli_config, "--out", str(other),
                 "--seed", "8"]) == 0
    assert (base / "schedule.csv").read_bytes() != (other / "schedule.csv").read_bytes()
    assert json.loads((other / "summary.json").read_text())[
        "config"]["synthesis"]["seed"] == 8
    assert main(["synthesize", "--config", cli_config, "--out", str(coarse),
                 "--grid", "21"]) == 0
    lines = (coarse / "pattern_h0.csv").read_text().splitlines()
    assert len(lines) == 5 + 21 * 21
    # the synthesis grid is untouched by --grid, so the schedule is unchanged
    assert (coarse / "schedule.csv").read_bytes() == (base / "schedule.csv").read_bytes()
    assert main(["synthesize", "--config", cli_config, "--out", str(colwise),
                 "--mode", "colwise-delta"]) == 0
    sched = read_schedule_csv(colwise / "schedule.csv")
    assert np.all(sched.rise == sched.rise[:, :1])
    assert np.all(sched.duty == sched.duty[:, :1])


def test_cli_sweeps(tmp_path, cli_config, capsys):
    for vary in ("bs", "user"):
        out = tmp_path / f"sweep_{vary}"
        assert main([f"sweep-{vary}", "--config", cli_config, "--out", str(out),
                     "--jobs", "2"]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == f"# vary: {vary}"
        kinds = [row.split(",")[0] for row in lines[2:]]
        assert kinds == ["sample", "sample", "summary"]
        angles = [float(row.split(",")[1]) for row in lines[2:4]]
        assert angles == [0.0, 20.0]
        assert lines[-1].split(",")[-1] == "argmax_xi"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["command"] == f"sweep-{vary}"
        assert len(summary["samples"]) == 2
    assert capsys.readouterr().out.count("best at") == 2


def test_cli_sweep_repeats_default_to_one(tmp_path, capsys):
    # localization.repeats counts localize's restarts, not a sweep's
    path = tmp_path / "restarts.yaml"
    path.write_text(CLI_CONFIG.replace("angles_deg: [0, 20]", "angles_deg: [20]")
                    .replace("iterations: 30", "iterations: 3")
                    .replace("repeats: 1", "repeats: 3"))
    for flags, want in (([], 1), (["--repeats", "2"], 2)):
        out = tmp_path / f"sweep_{want}"
        assert main(["sweep-bs", "--config", str(path), "--out", str(out)] + flags) == 0
        assert json.loads((out / "summary.json").read_text())["repeats"] == want


def test_cli_sweep_user_rejects_negative_angles(tmp_path, cli_config, capsys):
    # sweep-bs takes signed reflection angles; sweep-user reads the same list
    # as incidence angles and refuses a negative one before any work
    path = tmp_path / "signed.yaml"
    path.write_text(CLI_CONFIG.replace("angles_deg: [0, 20]", "angles_deg: [20, -10]"))
    out = tmp_path / "sweep_user"
    assert main(["sweep-user", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 'sweep.angles_deg[1]' must be a finite number in [0.0, 90.0), "
                          "got -10.0")
    assert not out.exists()


def test_cli_sweep_prints_the_summary_rows_best(tmp_path, cli_config, capsys, monkeypatch):
    # two samples tie on xi: the printed best and the summary row of
    # sweep.csv both take the smaller angle, whatever the config order
    def tied(scenario, vary, angles, **kwargs):
        return [SweepSample(angle_deg=a, phi=0.0, xi=5.0, p_sigma=5.0, p_delta=1.0,
                            floored=False, iterations=1, stop_reason="max_iterations",
                            source="synthesized") for a in angles]

    monkeypatch.setattr("tmems.cli.matched_sweep", tied)
    path = tmp_path / "tied.yaml"
    path.write_text(CLI_CONFIG.replace("angles_deg: [0, 20]", "angles_deg: [20, 0]"))
    out = tmp_path / "sweep"
    assert main(["sweep-bs", "--config", str(path), "--out", str(out)]) == 0
    kind, angle = (out / "sweep.csv").read_text().splitlines()[-1].split(",")[:2]
    assert (kind, float(angle)) == ("summary", 0.0)
    assert f"best at {float(angle):g} ->" in capsys.readouterr().out


def test_cli_summary_fields(tmp_path, cli_config):
    # every config-driven command writes summary.json through one runner;
    # these are the fields readers of the files rely on
    ratio = {"xi", "p_sigma", "p_delta", "floored"}
    book = tmp_path / "book.bin"
    # each command's own fields, with the keys of those that are mappings
    runs = {
        "synthesize": ([], {"results": {"phi", "iterations", "stop_reason", "bs_u"} | ratio}),
        "evaluate": (["--schedule", str(tmp_path / "synthesize" / "schedule.csv")],
                     {"schedule_file": None, "results": {"phi", "bs_u"} | ratio}),
        "sweep-bs": ([], {"repeats": None, "samples": None}),
        "sweep-user": ([], {"repeats": None, "samples": None}),
        "localize": (["--codebook", str(book)],
                     {"repeats": None, "samples": None,
                      "codebook": {"path", "built", "digest"},
                      "results": {"estimate_deg", "true_theta_deg", "best_xi", "runner_up_xi",
                                  "margin"}}),
    }
    for command, (extra, fields) in runs.items():
        out = tmp_path / command
        assert main([command, "--config", cli_config, "--out", str(out), *extra]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"command", "config", "wall_time_s"} | set(fields)
        assert summary["command"] == command
        for name, keys in fields.items():
            if keys is not None:
                assert set(summary[name]) == keys
    assert main(["export", "--codebook", str(book), "--out", str(tmp_path / "export")]) == 0
    meta = json.loads((tmp_path / "export" / "codebook.json").read_text())
    assert set(meta) == {"command", "source", "mode", "rows", "cols", "seed", "period_s",
                         "f0_hz", "digest", "entries"}
    assert set(meta["entries"][0]) == {"angle_deg", "phi", "file"}


def test_cli_reruns_write_the_same_files(tmp_path, cli_config):
    # every file a synthesize and a cold localize --codebook write is the
    # same on a rerun, codebook.bin included; summary.json once its wall
    # time is dropped. Both runs use the same paths, which summary.json names.
    run = tmp_path / "run"
    for command, extra in (("synthesize", []),
                           ("localize", ["--codebook", str(run / "codebook.bin")])):
        for tag in ("a", "b"):
            assert main([command, "--config", cli_config, "--out", str(run / "out")] + extra) == 0
            run.rename(tmp_path / f"{command}_{tag}")
        a, b = tmp_path / f"{command}_a", tmp_path / f"{command}_b"
        files = sorted(str(p.relative_to(a)) for p in a.rglob("*") if p.is_file())
        assert files == sorted(str(p.relative_to(b)) for p in b.rglob("*") if p.is_file())
        assert "out/summary.json" in files
        assert ("codebook.bin" in files) == (command == "localize")
        for name in files:
            got, want = (a / name).read_bytes(), (b / name).read_bytes()
            if name.endswith("summary.json"):
                got, want = json.loads(got), json.loads(want)
                assert got.pop("wall_time_s") >= 0.0 and want.pop("wall_time_s") >= 0.0
            assert got == want, name


def test_cli_synthesize_runs_tensor_states(tmp_path):
    # a cross-polarised on state: the masks calibrate on the states' own
    # sources, and a rerun writes the same files
    path = tmp_path / "tensor.yaml"
    path.write_text(CLI_CONFIG.replace("  iterations: 30", "  iterations: 5") + """\
states:
  gamma_on: [[[0.6, 0.0], [0.0, 0.6]], [[0.0, 0.6], [0.6, 0.0]]]
  gamma_off: -0.9
""")
    runs = [tmp_path / n for n in ("a", "b")]
    for out in runs:
        assert main(["synthesize", "--config", str(path), "--out", str(out)]) == 0
    for name in OUTPUTS:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name
    summary = json.loads((runs[0] / "summary.json").read_text())
    assert summary["config"]["states"]["gamma_on"][0][1] == [0.0, 0.6]


def test_cli_localize_and_export(tmp_path, cli_config):
    cold, warm1, warm2, packed = (tmp_path / n for n in ("lc", "lw1", "lw2", "ex"))
    book = tmp_path / "designs.tmcb"
    assert main(["localize", "--config", cli_config, "--out", str(cold)]) == 0
    assert main(["localize", "--config", cli_config, "--out", str(warm1),
                 "--codebook", str(book)]) == 0
    assert book.exists()
    assert main(["localize", "--config", cli_config, "--out", str(warm2),
                 "--codebook", str(book)]) == 0
    s_cold, s_warm1, s_warm2 = (
        json.loads((p / "summary.json").read_text()) for p in (cold, warm1, warm2))
    assert s_warm1["codebook"]["built"] is True
    assert s_warm2["codebook"]["built"] is False
    # the codebook is a cache: identical estimates and ratios either way
    assert (warm1 / "localization.csv").read_bytes() == (warm2 / "localization.csv").read_bytes()
    for s in (s_warm1, s_warm2):
        assert s["results"]["estimate_deg"] == s_cold["results"]["estimate_deg"]
        assert s["results"]["best_xi"] == s_cold["results"]["best_xi"]
    assert s_cold["results"]["true_theta_deg"] == 40.0
    assert main(["export", "--codebook", str(book), "--out", str(packed)]) == 0
    meta = json.loads((packed / "codebook.json").read_text())
    assert [e["angle_deg"] for e in meta["entries"]] == [20.0, 40.0]
    for e in meta["entries"]:
        sched = read_schedule_csv(packed / e["file"])
        assert sched.shape == (6, 6)


def test_cli_localize_rejects_colliding_candidates(tmp_path, capsys):
    # with or without a codebook, one error line naming the key and both
    # angles, before any design is synthesized or any file written
    path = tmp_path / "collide.yaml"
    path.write_text(CLI_CONFIG.replace("candidates_deg: [20, 40]",
                                       "candidates_deg: [20, 20.0001, 30]"))
    for extra in ([], ["--codebook", str(tmp_path / "designs.tmcb")]):
        out = tmp_path / "out"
        assert main(["localize", "--config", str(path), "--out", str(out), *extra]) == 2
        err = capsys.readouterr().err
        assert err == ("error: 'localization.candidates_deg': candidate angles 20.0 and "
                       "20.0001 collide at millidegree resolution\n")
        assert not out.exists() and not (tmp_path / "designs.tmcb").exists()


def test_cli_localize_rejects_a_stale_codebook(tmp_path, cli_config, capsys):
    # a book built for another scenario ends in one error line naming what
    # differs, and is neither used nor rebuilt
    book = tmp_path / "designs.tmcb"
    assert main(["localize", "--config", cli_config, "--out", str(tmp_path / "built"),
                 "--seed", "1", "--codebook", str(book)]) == 0
    blob = book.read_bytes()
    capsys.readouterr()
    for extra, message in ((["--seed", "2"], "different master seed (1, not 2)"),
                           (["--seed", "1", "--mode", "full"],
                            "mode and size (delta, 6x6) does not match the scenario (full, 6x6)"),
                           (["--seed", "1", "--repeats", "2"], "digest mismatch")):
        out = tmp_path / "stale"
        assert main(["localize", "--config", cli_config, "--out", str(out),
                     "--codebook", str(book), *extra]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and message in err, err
        assert "Traceback" not in err
        assert not (out / "summary.json").exists()
        assert book.read_bytes() == blob


def test_cli_jobs_has_no_effect(tmp_path, cli_config):
    # every design of a command runs in one PSO loop, so --jobs is accepted
    # and changes nothing
    outs = []
    for jobs in ("1", "3"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["localize", "--config", cli_config, "--out", str(out),
                     "--codebook", str(out / "codebook.bin"), "--jobs", jobs]) == 0
        assert json.loads((out / "summary.json").read_text())["codebook"]["built"] is True
        outs.append(out)
    for name in ("codebook.bin", "localization.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_cli_reports_out_of_memory(tmp_path, cli_config, capsys, monkeypatch):
    # an evaluation grid too large to allocate ends in an error line, not a
    # traceback; the failing allocation is simulated, so nothing large is
    # allocated
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 TiB for an array")

    monkeypatch.setattr(FieldEngine, "pattern", too_large)
    sched_path = tmp_path / "s.csv"
    write_schedule_csv(sched_path, random_schedule(np.random.default_rng(0), 6, 6))
    assert main(["evaluate", "--config", cli_config, "--out", str(tmp_path / "x"),
                 "--schedule", str(sched_path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 74.5 TiB for an array\n"


def test_cli_error_paths(tmp_path, cli_config, capsys, rng):
    bad_cfg = tmp_path / "bad.yaml"
    bad_cfg.write_text("surfce:\n  rows: 6\n")
    assert main(["synthesize", "--config", str(bad_cfg), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown key 'surfce'")
    bad_cfg.write_text("masks:\n  shoulder_scale: 1.2\n")
    assert main(["synthesize", "--config", str(bad_cfg), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("error: unknown key 'masks.shoulder_scale'")
    assert main(["synthesize", "--config", cli_config, "--out", str(tmp_path / "x"),
                 "--jobs", "0"]) == 2
    assert "--jobs" in capsys.readouterr().err
    assert main(["sweep-bs", "--config", cli_config, "--out", str(tmp_path / "x"),
                 "--repeats", "0"]) == 2
    assert "--repeats" in capsys.readouterr().err
    assert main(["synthesize", "--config", cli_config, "--out", str(tmp_path / "x"),
                 "--seed", str(2**64)]) == 2
    assert ("'synthesis.seed' must be an integer in [0, 18446744073709551615], "
            "got 18446744073709551616") in capsys.readouterr().err
    # schedule shape contradicts the configured surface
    sched_path = tmp_path / "wrong.csv"
    write_schedule_csv(sched_path, random_schedule(rng, 4, 4))
    assert main(["evaluate", "--config", cli_config, "--out", str(tmp_path / "x"),
                 "--schedule", str(sched_path)]) == 2
    assert "4x4" in capsys.readouterr().err
    assert main(["evaluate", "--config", cli_config, "--out", str(tmp_path / "x"),
                 "--schedule", str(tmp_path / "nope.csv")]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["export", "--codebook", str(tmp_path / "nope.tmcb"),
                 "--out", str(tmp_path / "x")]) == 2
    assert "error:" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["evaluate", "--config", cli_config])  # --schedule is required
    with pytest.raises(SystemExit):
        main([])  # a subcommand is required
