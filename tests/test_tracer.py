"""The benchmark's per-layer tracer still finds every binding it wraps.

A refactor that renames or drops a traced function would otherwise surface
only in a traced benchmark run; this imports the tracer (read only) and
installs it on the package.
"""

import importlib.util
import json
import sys
from pathlib import Path

import latspin.cli  # imports every latspin module the spans live in

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

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
    after = bindings(tracer_module)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
