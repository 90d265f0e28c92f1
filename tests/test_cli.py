import contextlib
import copy
import csv
import io
import json
import os
import re
import resource
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latspin import cli, dynamics, lagrangian
from latspin.lattice import AlgebraField, Grid, snapshot
from latspin.lie import LogBranchError, so3

from conftest import whole_trajectory

REFERENCE_CONFIG = {
    "grid": {"dim": 1, "sizes": [32], "spacing": [1.0 / 32]},
    "group": "SO3",
    "lagrangian": "spin_glass",
    "init": {"nu": {"profile": "fourier", "modes": 2, "amplitude": 0.5, "seed": 1}},
    "gamma0": {"profile": "zero"},
    "time": {"dt": 0.001, "steps": 1000},
    "output": {"cadence": 100},
}

ZERO_CONFIG = {
    "grid": {"dim": 1, "sizes": [8], "spacing": [0.125]},
    "group": "SO3",
    "lagrangian": "spin_glass",
    "init": {"nu": {"profile": "zero"}},
    "gamma0": {"profile": "zero"},
    "time": {"dt": 0.01, "steps": 10},
    "output": {"cadence": 1},
}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_cli(args, env_extra=None, preexec_fn=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "latspin.cli", *args],
        capture_output=True, text=True, env=env, preexec_fn=preexec_fn,
    )


def read_series(outdir):
    with open(os.path.join(outdir, "series.csv")) as fh:
        return list(csv.DictReader(fh))


# -- config validation -----------------------------------------------------------


def test_missing_grid_sizes_is_exit_2(tmp_path):
    cfg = json.loads(json.dumps(ZERO_CONFIG))
    del cfg["grid"]["sizes"]
    proc = run_cli(["simulate", write_config(tmp_path, cfg), str(tmp_path / "out")])
    assert proc.returncode == 2
    assert "grid.sizes" in proc.stderr


@pytest.mark.parametrize("mutate,key", [
    (lambda c: c["time"].update(dt=-1.0), "time.dt"),
    (lambda c: c.update(group="SU5"), "group"),
    (lambda c: c.update(lagrangian="nope"), "lagrangian"),
    (lambda c: c["init"]["nu"].update(profile="bogus"), "init.nu.profile"),
    (lambda c: c["init"]["nu"].pop("seed"), "init.nu.seed"),
    (lambda c: c["output"].update(cadence=0), "output.cadence"),
    pytest.param(lambda c: c["time"].update(dt=float("nan")), "time.dt", id="dt-nan"),
    pytest.param(lambda c: c["time"].update(dt="abc"), "time.dt", id="dt-string"),
    pytest.param(lambda c: c["time"].update(dt=None), "time.dt", id="dt-null"),
    pytest.param(lambda c: c["time"].update(steps=1.7), "time.steps", id="steps-fraction"),
    pytest.param(lambda c: c["time"].update(steps=2**70), "time.steps", id="steps-overflow"),
    pytest.param(lambda c: c["output"].update(cadence="x"), "output.cadence",
                 id="cadence-string"),
    pytest.param(lambda c: c["grid"].update(dim="x"), "grid.dim", id="dim-string"),
    pytest.param(lambda c: c["grid"].update(spacing=[float("nan")]), "grid.spacing",
                 id="spacing-nan"),
    pytest.param(lambda c: c["init"]["nu"].update(modes="x"), "init.nu.modes",
                 id="modes-string"),
    pytest.param(lambda c: c.update(output=[1]), "output", id="output-list"),
    pytest.param(lambda c: c.update(gamma0=[1]), "gamma0", id="gamma0-list"),
    pytest.param(lambda c: c.update(lagrangian=["x"]), "lagrangian", id="lagrangian-list"),
    # overflowing profiles: no numpy warning may precede the error line
    pytest.param(lambda c: c["init"]["nu"].update(amplitude=1e308), "init.nu.amplitude",
                 id="nu-amplitude-overflow"),
    pytest.param(lambda c: c["grid"].update(spacing=[1e308]), "grid.spacing",
                 id="spacing-overflow"),
    pytest.param(lambda c: c.update(gamma0={"profile": "pure_gauge", "modes": 2,
                                            "amplitude": 1e308, "seed": 2}),
                 "gamma0", id="pure-gauge-amplitude-overflow"),
    pytest.param(lambda c: c.update(gamma0={"profile": "fourier", "modes": 2,
                                            "amplitude": 1e308, "seed": 2}),
                 "gamma0.amplitude", id="fourier-gamma-amplitude-overflow"),
    # values finite, but their squares overflow the norm
    pytest.param(lambda c: c["init"]["nu"].update(amplitude=1e200), "init.nu.amplitude",
                 id="nu-norm-overflow"),
    pytest.param(lambda c: c.update(grid={"dim": 2, "sizes": [8, 8], "spacing": [0.1, 1e308]}),
                 "grid.spacing", id="spacing-overflow-2d"),
    pytest.param(lambda c: c["init"]["nu"].update(modes=99), "init.nu.modes",
                 id="modes-above-grid-limit"),
    pytest.param(lambda c: c["grid"].update(spacing=[1e-320]), "grid.spacing",
                 id="spacing-subnormal"),
    # dt * k underflows, so the run would freeze instead of stepping
    pytest.param(lambda c: c["time"].update(dt=1e-320), "time.dt", id="dt-subnormal"),
])
def test_invalid_configs_name_offending_key(tmp_path, mutate, key):
    cfg = json.loads(json.dumps(REFERENCE_CONFIG))
    mutate(cfg)
    proc = run_cli(["simulate", write_config(tmp_path, cfg), str(tmp_path / "out")])
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and key in lines[0], proc.stderr


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("command,sites,zero,key", [
    pytest.param("simulate", 100000, False, "grid.sizes", id="simulate-grid.sizes"),
    pytest.param("convergence", 100000, False, "ladder.sizes", id="convergence-ladder.sizes"),
    pytest.param("simulate", 3000, True, "grid.sizes", id="simulate-step-grid.sizes"),
    pytest.param("convergence", 3000, True, "ladder.sizes", id="convergence-step-ladder.sizes"),
    pytest.param("verify", 100000, False, "--sizes", id="verify---sizes"),
])
def test_unallocatable_grid_exits_2_naming_the_key(tmp_path, command, sites, zero, key):
    # The child runs under a 2 GiB address-space limit. At 1e10 sites one
    # scalar array of the grid (of the last ladder level, or of verify's 2-D
    # grid) takes 75 GiB, so the allocation fails at once on any machine. At
    # 9e6 sites the zero fields fit (about 1.3 GiB), and the arrays of the
    # first RK4 step do not.
    cfg = json.loads(json.dumps(STREAM_2D))
    if zero:
        cfg["init"], cfg["gamma0"] = {"nu": {"profile": "zero"}}, {"profile": "zero"}
    if command == "simulate":
        cfg["grid"] = {"dim": 2, "sizes": [sites] * 2, "spacing": [1.0 / sites] * 2}
        cfg["time"]["steps"] = 1
        args = [write_config(tmp_path, cfg), str(tmp_path / "out")]
    elif command == "convergence":
        cfg["grid"] = {"dim": 2, "sizes": [16, 16], "spacing": [1.0 / 16, 1.0 / 16]}
        cfg["ladder"] = {"sizes": [16, 32, sites]}
        args = [write_config(tmp_path, cfg)]
    else:
        args = ["--sizes", "32", str(sites)]
    proc = run_cli([command, *args], preexec_fn=_limit_address_space,
                   env_extra={"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    named = key if key.startswith("--") else f"config key {key!r}"
    assert len(lines) == 1 and lines[0].startswith(f"error: {named}"), lines
    assert "Traceback" not in proc.stderr


# Any import of scipy in the child raises ImportError.
WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from latspin import cli
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("command,code", [("simulate", 0), ("verify", 1), ("convergence", 0)])
def test_latspin_never_needs_scipy(tmp_path, command, code):
    if command == "simulate":
        args = [write_config(tmp_path, STREAM_2D), str(tmp_path / "out")]
    elif command == "convergence":
        args = [write_config(tmp_path, ladder_case(1, [16, 32, 64]))]
    else:
        args = []
    proc = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY, command, *args],
                          capture_output=True, text=True)
    assert proc.returncode == code, proc.stdout + proc.stderr
    assert proc.stderr == ""


@pytest.mark.parametrize("command", ["simulate", "convergence"])
@pytest.mark.parametrize("content", [b'{"grid": \xff}', b"[" * 100000 + b"]" * 100000, b"[1]"],
                         ids=["invalid-utf8", "nested-too-deep", "not-an-object"])
def test_unreadable_config_exits_2(tmp_path, capsys, command, content):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    argv = [command, str(path)] + ([str(tmp_path / "out")] if command == "simulate" else [])
    assert cli.main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot read config: "), lines


def test_readme_schema_table_lists_every_schema_key():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        readme = fh.read()
    section = readme.split("### Config schema")[1].split("\n## ")[0]
    keys = [row.split("|")[1].strip().strip("`") for row in section.splitlines()
            if row.startswith("| `")]
    assert keys == list(cli.SCHEMA)


@pytest.mark.parametrize("error", [ValueError("bad shape"), LogBranchError("at the cut locus")],
                         ids=["value-error", "log-branch"])
def test_profile_errors_other_than_modes_name_the_profile_key(error):
    # only dynamics.ModesError names <key>.modes (modes-above-grid-limit above)
    def make(grid, group, cfg):
        raise error

    with pytest.raises(cli.ConfigError) as info:
        cli._profile_field(None, None, "init.nu", {"amplitude": 1.0}, make)
    assert info.value.key == "init.nu"
    assert str(error) in str(info.value)


# -- simulate --------------------------------------------------------------------


def test_zero_data_run_emits_zero_rows(tmp_path):
    outdir = str(tmp_path / "out")
    code = cli.run_simulate(write_config(tmp_path, ZERO_CONFIG), outdir)
    assert code == 0
    with open(os.path.join(outdir, "series.csv")) as fh:
        assert fh.readline().strip() == cli.SERIES_HEADER
    rows = read_series(outdir)
    assert len(rows) == 11
    times = [float(r["t"]) for r in rows]
    assert all(b > a for a, b in zip(times, times[1:]))
    for row in rows:
        for col in ("l_value", "energy", "advection_residual", "curvature_max",
                    "covariant_residual", "exact_advect_gap"):
            assert abs(float(row[col])) <= 1e-13


def test_reference_run_energy_drift(tmp_path):
    outdir = str(tmp_path / "out")
    assert cli.run_simulate(write_config(tmp_path, REFERENCE_CONFIG), outdir) == 0
    rows = read_series(outdir)
    e0, eT = float(rows[0]["energy"]), float(rows[-1]["energy"])
    assert abs(eT - e0) / abs(e0) <= 1e-6


def test_simulate_outputs_snapshots_and_report(tmp_path):
    outdir = str(tmp_path / "out")
    cli.run_simulate(write_config(tmp_path, ZERO_CONFIG), outdir)
    report = json.load(open(os.path.join(outdir, "report.json")))
    assert report["status"] == "ok"
    assert len(report["rows"]) == 11
    snap = json.load(open(os.path.join(outdir, "state_10.json")))
    from latspin.lattice import field_from_snapshot

    nu = field_from_snapshot(snap["nu"], so3())
    assert nu.values.shape == (8, 3)
    gamma = field_from_snapshot(snap["gamma"], so3())
    assert gamma.comps.shape == (1, 8, 3)


@pytest.mark.parametrize("chunk", [1, 2, 3, 4096])
def test_chunked_json_writer_matches_dumps(chunk):
    # 4097 entries are a multiple of none of the chunk sizes but 1
    data = np.random.default_rng(3).normal(size=4097)
    data[:4] = -0.0, 1e-300, 0.0, -1e-300
    nu = AlgebraField(Grid((5,), (0.2,)), so3(), data[:15].reshape(5, 3))
    doc = {
        "t": 0.25, "empty": [], "nested": {"a": [1.5, -0.0, 1e-300], "b": {}},
        "one": [7.0], "three": [0.1, 0.2, 0.3], "list_of_lists": [[1], [2, 3]],
        "kind": "algebra", "flag": True, "none": None,
        "data": data.tolist(), "array": data, "empty_array": data[:0],
        "snapshot": snapshot(nu),
    }
    buf = io.StringIO()
    cli._write_json(buf, doc, chunk)
    # the bytes of the list form
    assert buf.getvalue() == json.dumps(doc, default=np.ndarray.tolist)


def test_divergent_run_exits_3(tmp_path):
    cfg = json.loads(json.dumps(REFERENCE_CONFIG))
    cfg["init"]["nu"]["amplitude"] = 0.02
    cfg["gamma0"] = {"profile": "fourier", "modes": 2, "amplitude": 0.1, "seed": 2}
    cfg["time"] = {"dt": 1.0, "steps": 500}
    outdir = str(tmp_path / "out")
    proc = run_cli(["simulate", write_config(tmp_path, cfg), outdir])
    assert proc.returncode == 3
    report = json.load(open(os.path.join(outdir, "report.json")))
    assert report["status"] == "diverged"
    assert report["failed_step"] >= 1
    # a finite but blowing-up state overruns the reconstruction limit
    assert report["failed_cause"] == "step_too_large"
    assert report["failed_field"] == "chi"
    assert proc.stderr.splitlines() == [
        f"error: step_too_large in chi at step {report['failed_step']}"]


def test_overflow_inside_an_rk4_stage_exits_3(tmp_path):
    # dt 1e100 overflows inside the first step's stages, before the new state
    cfg = json.loads(json.dumps(REFERENCE_CONFIG))
    cfg["init"]["nu"] = {"profile": "zero"}
    cfg["gamma0"] = {"profile": "fourier", "modes": 2, "amplitude": 1.0, "seed": 3}
    cfg["time"] = {"dt": 1e100, "steps": 3}
    outdir = str(tmp_path / "out")
    proc = run_cli(["simulate", write_config(tmp_path, cfg), outdir])
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    report = json.load(open(os.path.join(outdir, "report.json")))
    assert report["status"] == "diverged"
    assert report["failed_step"] == 1
    assert report["failed_cause"] == "non_finite"
    assert report["failed_field"] == "nu"
    assert proc.stderr.splitlines() == ["error: non_finite in nu at step 1"]


def test_diverged_run_keeps_its_finished_rows(tmp_path):
    # fails at step 30 (dt * max|nu| overruns the reconstruction limit); the
    # rows at steps 0, 7, ..., 28 were finished before that
    cfg = json.loads(json.dumps(REFERENCE_CONFIG))
    cfg["init"]["nu"]["amplitude"] = 0.02
    cfg["gamma0"] = {"profile": "fourier", "modes": 2, "amplitude": 0.1, "seed": 2}
    cfg["time"] = {"dt": 0.1, "steps": 500}
    cfg["output"] = {"cadence": 7}
    outdir = str(tmp_path / "out")
    proc = run_cli(["simulate", write_config(tmp_path, cfg), outdir])
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    report = json.load(open(os.path.join(outdir, "report.json")))
    assert report["status"] == "diverged"
    rows = read_series(outdir)
    assert len(rows) >= 2
    assert len(rows) == len(report["rows"])
    for row, want in zip(rows, report["rows"]):
        assert row == {key: cli._fmt(want[key]) for key in cli.SERIES_HEADER.split(",")}
        assert want["t"] < report["failed_step"] * cfg["time"]["dt"]
    steps = [round(row["t"] / cfg["time"]["dt"]) for row in report["rows"]]
    assert steps == list(range(0, steps[-1] + 1, 7))
    states = sorted(f for f in os.listdir(outdir) if f.startswith("state_"))
    assert states == sorted(f"state_{n}.json" for n in steps)


def test_simulate_into_an_existing_file_exits_2(tmp_path):
    target = tmp_path / "taken"
    target.write_text("")
    proc = run_cli(["simulate", write_config(tmp_path, ZERO_CONFIG), str(target)])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert str(target) in proc.stderr


def test_convergence_output_dir_is_a_file_exits_2_before_the_ladder(tmp_path):
    # the 4-site level would exit 2 naming ladder.sizes once the ladder ran
    target = tmp_path / "taken"
    target.write_text("")
    cfg = json.loads(json.dumps(REFERENCE_CONFIG))
    cfg["ladder"] = {"sizes": [4, 16, 32]}
    cfg["output_dir"] = str(target)
    proc = run_cli(["convergence", write_config(tmp_path, cfg)])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "config key 'output_dir'" in proc.stderr


def test_simulate_with_a_directory_in_place_of_a_snapshot_exits_2(tmp_path):
    # a directory cannot be opened for writing, by root either
    outdir = tmp_path / "out"
    (outdir / "state_0.json").mkdir(parents=True)
    proc = run_cli(["simulate", write_config(tmp_path, ZERO_CONFIG), str(outdir)])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: output directory: ")
    assert "state_0.json" in proc.stderr


def test_convergence_with_a_directory_in_place_of_orders_exits_2(tmp_path):
    cfg = json.loads(json.dumps(ZERO_CONFIG))
    cfg["ladder"] = {"sizes": [8, 16, 32]}
    cfg["output_dir"] = str(tmp_path / "conv")
    (tmp_path / "conv" / "orders.json").mkdir(parents=True)
    proc = run_cli(["convergence", write_config(tmp_path, cfg)])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: output directory: ")
    assert "orders.json" in proc.stderr


STREAM_2D = {
    "grid": {"dim": 2, "sizes": [16, 12], "spacing": [1.0 / 16, 1.0 / 12]},
    "group": "SO3",
    "lagrangian": "spin_glass",
    "init": {"nu": {"profile": "fourier", "modes": 2, "amplitude": 0.4, "seed": 7}},
    "gamma0": {"profile": "pure_gauge", "modes": 2, "amplitude": 0.3, "seed": 8},
    "time": {"dt": 0.002, "steps": 7},
    "output": {"cadence": 3},
}


def stream_case(steps):
    cfg = json.loads(json.dumps(REFERENCE_CONFIG))
    cfg["gamma0"] = {"profile": "fourier", "modes": 2, "amplitude": 0.2, "seed": 5}
    cfg["time"] = {"dt": 0.001, "steps": steps}
    cfg["output"] = {"cadence": 3}
    return cfg


@pytest.mark.parametrize("raw", [
    pytest.param(stream_case(steps), id=f"1d-{steps}-steps") for steps in (0, 1, 2, 7)
] + [pytest.param(STREAM_2D, id="2d-16x12")])
def test_streamed_outputs_equal_the_collected_trajectory(tmp_path, raw):
    outdir = tmp_path / "streamed"
    assert cli.run_simulate(write_config(tmp_path, raw), str(outdir)) == 0
    # the same files from the whole Trajectory, held at once
    expected = tmp_path / "collected"
    expected.mkdir()
    cfg = cli.parse_config(raw)
    traj = whole_trajectory(cfg)
    samples = sorted(set(range(0, traj.steps + 1, cfg.cadence)) | {traj.steps})
    rows = cli.trajectory_rows(cfg.spec, traj, samples)
    cli.write_series(str(expected / "series.csv"), rows)
    for n in samples:
        cli._write_state(str(expected), traj, n)
    report = {"config": raw, "status": "ok", "rows": rows}
    (expected / "report.json").write_text(json.dumps(report, indent=2))
    names = sorted(os.listdir(expected))
    assert sorted(os.listdir(outdir)) == names
    assert len(names) == len(samples) + 2
    for name in names:
        assert (outdir / name).read_bytes() == (expected / name).read_bytes(), name


def test_simulate_peak_memory_is_flat_in_the_step_count(tmp_path):
    # 16x16: one held step (nu, gamma, chi) is about 36 KiB, so holding the
    # whole run would add about 6.3 MiB between 20 and 200 steps
    def traced_peak(steps, n=16):
        raw = json.loads(json.dumps(STREAM_2D))
        raw["grid"] = {"dim": 2, "sizes": [n, n], "spacing": [1.0 / n, 1.0 / n]}
        raw["time"]["steps"] = steps
        raw["output"]["cadence"] = 10
        path = write_config(tmp_path, raw, f"config_{n}_{steps}.json")
        tracemalloc.start()
        try:
            assert cli.run_simulate(path, str(tmp_path / f"out_{n}_{steps}")) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(2)  # first-call allocations (imports, caches) stay out of the figures
    short, long = traced_peak(20), traced_peak(200)
    assert long <= 1.1 * short, (short, long)

    # 64x64, where the fields dwarf everything else: the footprint is a fixed
    # number of held steps. 5.71 were measured (7.24 before the temporaries
    # of a step were folded in place and snapshots streamed); 6 leaves a 5%
    # margin.
    held_step = 64 * 64 * 8 * (3 + 2 * 3 + 3 * 3)
    peak = traced_peak(20, n=64)
    assert peak <= 6 * held_step, peak / held_step


def test_reproducible_series_across_runs_and_threads(tmp_path):
    cfg = json.loads(json.dumps(REFERENCE_CONFIG))
    cfg["time"] = {"dt": 0.001, "steps": 50}
    path = write_config(tmp_path, cfg)
    blobs = []
    for tag, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        outdir = str(tmp_path / tag)
        proc = run_cli(["simulate", path, outdir],
                       env_extra={"OMP_NUM_THREADS": threads,
                                  "OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0
        blobs.append(open(os.path.join(outdir, "series.csv"), "rb").read())
    assert blobs[0] == blobs[1] == blobs[2]


# -- verify -----------------------------------------------------------------------


def test_verify_reports_expected_pass_fail_pattern():
    all_ok, lines = cli.verify_suite(seed=0)
    names = {name: ok for name, ok, _, _ in lines}
    # every exact identity passes at machine precision
    for name, ok, bound, tol in lines:
        if "gauge_invariance" not in name:
            assert ok, f"{name} measured {bound:.3e} above {tol:.1e}"
    # the discrete affine action is only second-order accurate, so the pinned
    # exactness tolerance on the instantaneous Lagrangian cannot be met
    assert not names["lagrangian.gauge_invariance.1d"]
    assert not names["lagrangian.gauge_invariance.2d"]
    assert all_ok is False


def test_verify_minimal_grid_guard():
    _, lines = cli.verify_suite(seed=3, sizes=(4, 4))
    for name, ok, bound, tol in lines:
        if "gauge_invariance" not in name:
            assert ok, f"{name} measured {bound:.3e} above {tol:.1e}"


def test_verify_mutation_hook_fails_fd_match(monkeypatch):
    # a density whose d_sigma2 has the wrong sign must fail the fd oracle
    real_spec = lagrangian.spin_glass_spec

    def flipped_spec():
        spec = real_spec()
        good = spec.d_sigma2
        spec.d_sigma2 = lambda t, s1, s2: -good(t, s1, s2)
        return spec

    monkeypatch.setattr(lagrangian, "spin_glass_spec", flipped_spec)
    _, lines = cli.verify_suite(seed=0, sizes=(8, 4))
    names = {name: ok for name, ok, _, _ in lines}
    assert not names["lagrangian.fd_match_gamma.1d"]
    assert names["lagrangian.fd_match_nu.1d"]


def test_verify_cli_exit_codes():
    proc = run_cli(["verify", "--seed", "1", "--sizes", "8", "4"])
    assert proc.returncode == 1
    assert "PASS lattice.sbp.1d" in proc.stdout
    assert run_cli(["verify", "--flip-gamma-sign"]).returncode == 2  # no such flag


@pytest.mark.parametrize("args,flag", [
    (["--sizes", "3", "3"], "--sizes"),
    (["--sizes", "4", "-2"], "--sizes"),
    (["--seed", "-1"], "--seed"),
])
def test_verify_bad_arguments_exit_2_naming_the_flag(args, flag):
    proc = run_cli(["verify", *args])
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and flag in lines[0], proc.stderr
    assert proc.stdout == ""


# -- convergence -----------------------------------------------------------------


def test_convergence_rejects_short_ladder(tmp_path):
    cfg = json.loads(json.dumps(ZERO_CONFIG))
    cfg["ladder"] = {"sizes": [8, 16]}
    proc = run_cli(["convergence", write_config(tmp_path, cfg)])
    assert proc.returncode == 2
    assert "ladder.sizes" in proc.stderr


@pytest.mark.parametrize("base,ladder,key", [
    pytest.param(ZERO_CONFIG, [1], "ladder", id="ladder-list"),
    pytest.param(ZERO_CONFIG, "x", "ladder", id="ladder-string"),
    pytest.param(ZERO_CONFIG, {"sizes": ["x", 16, 32]}, "ladder.sizes", id="size-string"),
    pytest.param(ZERO_CONFIG, {"sizes": [2.5, 16, 32]}, "ladder.sizes", id="size-fraction"),
    pytest.param(ZERO_CONFIG, {"sizes": [True, 16, 32]}, "ladder.sizes", id="size-bool"),
    pytest.param(ZERO_CONFIG, {"sizes": [0, 16, 32]}, "ladder.sizes", id="size-zero"),
    pytest.param(ZERO_CONFIG, {"sizes": [2, 16, 32]}, "ladder.sizes", id="size-below-grid"),
    pytest.param(ZERO_CONFIG, {"sizes": [16, 16, 32]}, "ladder.sizes", id="size-repeated"),
    # the 32-site base parses; a 4-site level cannot carry its 2 Fourier modes
    pytest.param(REFERENCE_CONFIG, {"sizes": [4, 16, 32]}, "ladder.sizes",
                 id="level-too-coarse-for-modes"),
    pytest.param(dict(ZERO_CONFIG, output_dir=[1]), {"sizes": [8, 16, 32]}, "output_dir",
                 id="output-dir-list"),
    pytest.param(dict(ZERO_CONFIG, time={"dt": 1e-320, "steps": 10}), {"sizes": [8, 16, 32]},
                 "time.dt", id="dt-subnormal"),
])
def test_convergence_invalid_config_names_key(tmp_path, base, ladder, key):
    cfg = json.loads(json.dumps(base))
    cfg["ladder"] = ladder
    proc = run_cli(["convergence", write_config(tmp_path, cfg)])
    assert proc.returncode == 2, proc.stderr
    assert f"config key {key!r}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_convergence_divergent_level_exits_3(tmp_path):
    cfg = json.loads(json.dumps(ZERO_CONFIG))
    cfg["gamma0"] = {"profile": "fourier", "modes": 1, "amplitude": 1.0, "seed": 2}
    cfg["time"]["dt"] = 1.0
    cfg["ladder"] = {"sizes": [8, 16, 32]}
    proc = run_cli(["convergence", write_config(tmp_path, cfg)])
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.splitlines() == [
        "error: ladder level 8 diverged: step_too_large in chi at step 1"]
    assert not (tmp_path / "orders.json").exists()


def test_convergence_ladder_writes_orders(tmp_path):
    cfg = {
        "grid": {"dim": 1, "sizes": [16], "spacing": [1.0 / 16]},
        "group": "SO3",
        "lagrangian": "spin_glass",
        "init": {"nu": {"profile": "fourier", "modes": 1, "amplitude": 0.3, "seed": 11}},
        "gamma0": {"profile": "fourier", "modes": 1, "amplitude": 0.2, "seed": 12},
        "time": {"dt": 0.25 / 16, "steps": 32},
        "ladder": {"sizes": [16, 32, 64]},
        "output_dir": str(tmp_path / "conv"),
    }
    proc = run_cli(["convergence", write_config(tmp_path, cfg)])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.load(open(tmp_path / "conv" / "orders.json"))
    assert len(payload["measurements"]) == 3
    for key in cli.ORDER_KEYS:
        assert payload["orders"][key] >= 1.7


def ladder_case(dim, sizes):
    """A short ladder on dim axes: 4 steps at the base level, dt scaled with h."""
    n = sizes[0]
    return {
        "grid": {"dim": dim, "sizes": [n] * dim, "spacing": [1.0 / n] * dim},
        "group": "SO3",
        "lagrangian": "spin_glass",
        "init": {"nu": {"profile": "fourier", "modes": 1, "amplitude": 0.3, "seed": 11}},
        "gamma0": {"profile": "pure_gauge", "modes": 1, "amplitude": 0.2, "seed": 12},
        "time": {"dt": 0.15 / n, "steps": 4},
        "ladder": {"sizes": sizes},
    }


def whole_ladder(cfgs, probes, probe_eps, probe_seed):
    """ladder_measurements from each level's whole trajectory: the interior
    maxima of monitor_row and variational_residual on the collected run."""
    out = []
    for cfg in cfgs:
        traj = whole_trajectory(cfg)
        rows = [dynamics.monitor_row(cfg.spec, traj, k) for k in range(1, traj.steps)]
        out.append({
            "sites": cfg.grid.sizes[0],
            "h": cfg.grid.spacing[0],
            "dt": cfg.dt,
            "steps": cfg.steps,
            "variational_residual": dynamics.variational_residual(
                cfg.spec, traj, probes=probes, eps=probe_eps, seed=probe_seed),
            **{key: max(row[key] for row in rows) for key in cli.ORDER_KEYS[1:]},
        })
    return out


@pytest.mark.parametrize("raw", [
    pytest.param(ladder_case(1, [8, 16, 32]), id="1d"),
    pytest.param(ladder_case(2, [8, 12, 16]), id="2d"),
])
def test_streamed_ladder_equals_the_whole_trajectory_reference(raw, monkeypatch):
    # 40 probes over at most 15 interior steps per level: probes share steps,
    # and each must still be evaluated once (4 action terms), at the visit of
    # its step
    simulate, action = dynamics.simulate, dynamics.instantaneous_L
    level_cfgs, action_calls = [], []

    def spy(cfg, visit):
        level_cfgs.append(cfg)
        simulate(cfg, visit)

    def counted(*args):
        action_calls.append(None)
        return action(*args)

    monkeypatch.setattr(dynamics, "simulate", spy)
    monkeypatch.setattr(dynamics, "instantaneous_L", counted)
    streamed = cli.ladder_measurements(raw, raw["ladder"]["sizes"], probes=40,
                                       probe_eps=1e-5, probe_seed=3)
    monkeypatch.undo()
    assert max(cfg.steps for cfg in level_cfgs) - 1 < 40
    assert len(action_calls) == 3 * 40 * 4
    reference = whole_ladder(level_cfgs, 40, 1e-5, 3)
    assert [list(m) for m in streamed] == [list(m) for m in reference]
    for got, want in zip(streamed, reference):
        for key, value in want.items():
            assert got[key] == value, key


def test_convergence_peak_memory_is_flat_in_the_step_count(tmp_path):
    # a level holds three steps while it runs: ten times the steps (dt scaled
    # to keep T) adds no held steps, where a whole 64-site level of 320 steps
    # would add about 2.4 MB
    def traced_peak(factor):
        raw = ladder_case(1, [16, 32, 64])
        raw["time"] = {"dt": 0.15 / 16 / factor, "steps": 8 * factor}
        raw["output_dir"] = str(tmp_path / f"out_{factor}")
        path = write_config(tmp_path, raw, f"config_{factor}.json")
        tracemalloc.start()
        try:
            assert cli.run_convergence(path) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(1)  # first-call allocations (imports, caches) stay out of the figures
    short, long = traced_peak(1), traced_peak(10)
    assert long <= 1.1 * short, (short, long)


def test_fit_order_zero_ladder_is_inf():
    assert cli.fit_order([0.1, 0.05, 0.025], [0.0, 0.0, 0.0]) == float("inf")
    assert cli.fit_order([0.1, 0.05], [4e-2, 1e-2]) == pytest.approx(2.0)


# -- CLI contract ------------------------------------------------------------------

# A small config to mutate. No value in FUZZ_VALUES makes a valid run long:
# large step counts, site counts and ladder levels are rejected, or fail to
# allocate at once.
FUZZ_CONFIG = {
    "grid": {"dim": 1, "sizes": [8], "spacing": [0.125]},
    "group": "SO3",
    "lagrangian": "spin_glass",
    "init": {"nu": {"profile": "fourier", "modes": 1, "amplitude": 0.02, "seed": 1}},
    "gamma0": {"profile": "fourier", "modes": 1, "amplitude": 1.0, "seed": 2},
    "time": {"dt": 0.01, "steps": 4},
    "output": {"cadence": 2},
    "ladder": {"sizes": [8, 16, 32]},
}
FUZZ_VALUES = [None, "x", [], [1], {}, True, -1, 0, 1, 2, 2.5, 16, 1e-320, 1e100, 1e308,
               2**70, float("nan"), float("inf"), "zero", "pure_gauge"]
SCHEMA_KEYS = {key.rsplit(".", k)[0] for key in cli.SCHEMA for k in range(3)}


def _paths(node, prefix=()):
    """The path to every value below node, list entries included."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated_configs(draw):
    cfg = json.loads(json.dumps(FUZZ_CONFIG))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(sorted(_paths(cfg), key=str)))
        parent = cfg
        for part in path[:-1]:
            parent = parent[part]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(FUZZ_VALUES)))
    return cfg


def _with_dt(dt):
    cfg = json.loads(json.dumps(FUZZ_CONFIG))
    cfg["time"]["dt"] = dt
    return cfg


# Two inputs the generator reaches only rarely, as most single mutations are
# rejected: a ladder level that diverges, and a subnormal time.dt.
@example(command="convergence", cfg=_with_dt(1.0))
@example(command="convergence", cfg=_with_dt(1e-320))
@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(command=st.sampled_from(["simulate", "convergence"]), cfg=mutated_configs())
def test_cli_contract_holds_for_mutated_configs(command, cfg):
    # in process: an escaping exception is the traceback the CLI would print
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        argv = [command, path] + ([os.path.join(tmp, "out")] if command == "simulate" else [])
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(argv)
    lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
    assert code in ((0, 1, 2, 3) if command == "convergence" else (0, 2, 3)), (code, lines)
    if code == 2:
        assert len(lines) == 1, lines
        named = re.match(r"error: config key '([^']*)'", lines[0])
        assert named and named.group(1) in SCHEMA_KEYS, lines
