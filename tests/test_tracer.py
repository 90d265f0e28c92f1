"""The benchmark's per-layer tracer still finds every binding it wraps.

A refactor that renames or drops a traced function would otherwise surface
only in a traced benchmark run; this imports the tracer and the workload
definitions (read only), installs the tracer on the package, and checks each
workload's exact span call counts.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import latspin.cli  # imports every latspin module the spans live in

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER_PATH = PERFBENCH / "tracer.py"
WORKLOADS_PATH = PERFBENCH / "workloads.py"

SMALL_CONFIG = {
    "grid": {"dim": 1, "sizes": [8], "spacing": [0.125]},
    "group": "SO3",
    "lagrangian": "spin_glass",
    "init": {"nu": {"profile": "fourier", "modes": 1, "amplitude": 0.3, "seed": 1}},
    "gamma0": {"profile": "fourier", "modes": 1, "amplitude": 0.2, "seed": 2},
    "time": {"dt": 0.01, "steps": 3},
    "output": {"cadence": 2},
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    # @dataclass looks its class's module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def bindings(tracer_module):
    """Every function bound in a namespace the spans may patch, by identity."""
    owners = [m for k, m in sys.modules.items()
              if k == "latspin" or k.startswith("latspin.")]
    for name, attrs, _ in tracer_module.SPANS:
        home = sys.modules["latspin." + name.split(".")[0]]
        owners += [getattr(home, a.split(".")[0]) for a in attrs if "." in a]
    return {(id(owner), key): val for owner in owners
            for key, val in vars(owner).items() if callable(val)}


def test_every_span_resolves_and_uninstall_restores(tmp_path):
    tracer_module = load_tracer()
    before = bindings(tracer_module)
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        for name, attrs, _ in tracer_module.SPANS:
            home = sys.modules["latspin." + name.split(".")[0]]
            for attr in attrs:
                owner, _, key = attr.rpartition(".")
                target = vars(getattr(home, owner)) if owner else vars(home)
                assert hasattr(target[key], "__wrapped__"), f"{name}: {attr} not wrapped"
        config = tmp_path / "config.json"
        config.write_text(json.dumps(SMALL_CONFIG))
        assert latspin.cli.run_simulate(str(config), str(tmp_path / "out")) == 0
    finally:
        tracer.uninstall()
    counts = tracer.report()
    steps = SMALL_CONFIG["time"]["steps"]
    assert counts["dynamics.simulate.calls"] == 1
    assert counts["dynamics.aep_rhs.calls"] == 4 * steps
    assert counts["fields.reconstruct_step.calls"] == 2 * steps
    # steps 0, 2 and 3 are written: two snapshots and one curvature each
    assert counts["lattice.snapshot.calls"] == 6
    assert counts["fields.curvature.calls"] == 3
    # one l_value and one energy per row; the RK4 stages read the density's
    # own derivatives, so the container derivatives serve energy alone
    assert counts["dynamics.energy.calls"] == 3
    assert counts["lagrangian.reduced_l.calls"] == 6
    assert counts["lagrangian.delta_l_delta_nu.calls"] == 3
    assert counts["lagrangian.delta_l_delta_gamma.calls"] == 0
    # the runs' own operator calls: one cov_diff and one div_dual per RK4
    # stage and per row (compatibility_monitor, covariant_residual); the
    # isotropic spin_glass skips cov_div, and no abar is given
    assert counts["fields.cov_diff.calls"] == 4 * steps + 3
    assert counts["lattice.div_dual.calls"] == 4 * steps + 3
    assert counts["fields.cov_div.calls"] == 0
    after = bindings(tracer_module)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("name", ["chain1d", "field2d", "ladder2d", "verify"])
def test_every_workload_makes_its_expected_span_calls(tmp_path, name):
    workload = load_workloads().WORKLOADS[name]
    config = tmp_path / "config.json"
    if workload.config is not None:
        config.write_text(json.dumps(workload.config_for(None)))
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        latspin.cli.main(workload.argv(None, str(config), str(tmp_path / "out")))
    finally:
        tracer.uninstall()
    counts = tracer.report()
    for key, want in workload.expected_calls().items():
        assert counts[key] == want, key


def test_the_step_loop_builds_no_field_container(tmp_path):
    # rows, and their containers, come at steps 0 and steps alone, so the
    # container count does not depend on the step count
    tracer_module = load_tracer()
    wraps = []
    for steps in (3, 9):
        raw = json.loads(json.dumps(SMALL_CONFIG))
        raw["time"]["steps"], raw["output"]["cadence"] = steps, 100
        config = tmp_path / f"config_{steps}.json"
        config.write_text(json.dumps(raw))
        tracer = tracer_module.Tracer()
        tracer.install()
        try:
            assert latspin.cli.run_simulate(str(config), str(tmp_path / f"out_{steps}")) == 0
        finally:
            tracer.uninstall()
        counts = tracer.report()
        assert counts["fields.reconstruct_step.calls"] == 2 * steps
        wraps.append(counts["lattice.field_wrap.calls"])
    assert wraps[0] == wraps[1]
